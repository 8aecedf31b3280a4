package engine

import (
	"testing"

	"streamscale/internal/sim"
)

func newTestQueue(cap int) (*simQueue, *sim.Scheduler, *sim.Kernel) {
	k := sim.NewKernel()
	s := sim.NewScheduler(k, 1, 1, sim.DefaultSchedulerConfig())
	return newSimQueue(cap, 0x1000, s, new(chunkPool[Msg])), s, k
}

func TestSimQueueFIFO(t *testing.T) {
	q, _, _ := newTestQueue(4)
	for i := 0; i < 4; i++ {
		if _, ok := q.tryPush(Msg{FromGlobal: i}); !ok {
			t.Fatalf("push %d failed on non-full queue", i)
		}
	}
	if _, ok := q.tryPush(Msg{}); ok {
		t.Fatal("push succeeded on full queue")
	}
	for i := 0; i < 4; i++ {
		m, _, ok := q.tryPop()
		if !ok {
			t.Fatalf("pop %d failed on non-empty queue", i)
		}
		if m.FromGlobal != i {
			t.Fatalf("pop %d returned message %d: not FIFO", i, m.FromGlobal)
		}
	}
	if _, _, ok := q.tryPop(); ok {
		t.Fatal("pop succeeded on empty queue")
	}
}

func TestSimQueueWrapsRing(t *testing.T) {
	q, _, _ := newTestQueue(2)
	for round := 0; round < 10; round++ {
		q.tryPush(Msg{FromGlobal: round})
		m, _, _ := q.tryPop()
		if m.FromGlobal != round {
			t.Fatalf("round %d: got %d", round, m.FromGlobal)
		}
	}
	if q.size() != 0 {
		t.Fatalf("size = %d after balanced push/pop", q.size())
	}
}

func TestSimQueueSlotAddresses(t *testing.T) {
	q, _, _ := newTestQueue(4)
	s0, _ := q.tryPush(Msg{})
	s1, _ := q.tryPush(Msg{})
	if q.slotAddr(s0) == q.slotAddr(s1) {
		t.Fatal("consecutive slots share an address")
	}
	if q.slotAddr(s0) < 0x1000 {
		t.Fatal("slot address below ring base")
	}
}

// A push must wake a consumer registered via awaitData, and a pop must wake
// producers registered via awaitSpace.
func TestSimQueueWakeups(t *testing.T) {
	k := sim.NewKernel()
	s := sim.NewScheduler(k, 2, 2, sim.DefaultSchedulerConfig())
	q := newSimQueue(1, 0, s, new(chunkPool[Msg]))

	woken := map[string]bool{}
	mk := func(name string) *sim.Thread {
		first := true
		return s.Spawn(name, stepFunc(func(quantum sim.Cycles) (sim.Cycles, sim.Disposition) {
			if first {
				first = false
				return 1, sim.Blocked
			}
			woken[name] = true
			return 1, sim.Done
		}), nil)
	}
	consumer := mk("consumer")
	producer := mk("producer")
	k.Run(0) // both block

	q.awaitData(consumer)
	q.tryPush(Msg{})
	k.Run(0)
	if !woken["consumer"] {
		t.Fatal("push did not wake the waiting consumer")
	}

	q.awaitSpace(producer)
	q.awaitSpace(producer) // duplicate registration must be idempotent
	q.tryPop()
	k.Run(0)
	if !woken["producer"] {
		t.Fatal("pop did not wake the waiting producer")
	}
}

func TestSystemProfilesSanity(t *testing.T) {
	storm, flink := Storm(), Flink()
	if !storm.AckEnabled || flink.AckEnabled {
		t.Fatal("acking: storm on, flink off")
	}
	if flink.CheckpointInterval == 0 {
		t.Fatal("flink must checkpoint")
	}
	if storm.HotBytes() <= flink.HotBytes() {
		t.Fatalf("storm platform (%d) must exceed flink (%d), per Fig 9",
			storm.HotBytes(), flink.HotBytes())
	}
	for _, p := range []SystemProfile{storm, flink} {
		if p.QueueCap <= 0 || p.UopsPerTuple <= 0 || p.MispredictRate <= 0 {
			t.Fatalf("%s profile has zero-valued knobs", p.Name)
		}
		for _, c := range p.ColdRegions {
			if c.Every <= 0 {
				t.Fatalf("%s cold region %s has no period", p.Name, c.Name)
			}
		}
	}
}

func TestGroupingConstructors(t *testing.T) {
	if Shuffle().Kind != GroupShuffle || Global().Kind != GroupGlobal || All().Kind != GroupAll {
		t.Fatal("grouping constructors mislabeled")
	}
	f := Fields("a", "b")
	if f.Kind != GroupFields || len(f.Fields) != 2 {
		t.Fatal("fields grouping malformed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty fields grouping did not panic")
		}
	}()
	Fields()
}

func TestGroupKindStrings(t *testing.T) {
	for k, want := range map[GroupKind]string{
		GroupShuffle: "shuffle", GroupFields: "fields",
		GroupGlobal: "global", GroupAll: "all",
	} {
		if k.String() != want {
			t.Fatalf("%v != %s", k, want)
		}
	}
}

// stepFunc adapts a function to sim.Runner for queue wake tests.
type stepFunc func(sim.Cycles) (sim.Cycles, sim.Disposition)

func (f stepFunc) Step(q sim.Cycles) (sim.Cycles, sim.Disposition) { return f(q) }
