package engine

import "testing"

// TestBarriersAlignOnBothRuntimes runs Flink's checkpointing with a short
// interval under a source rate that spans many intervals, on both
// runtimes. Every source must inject at least one barrier, and every
// other executor must align exactly the smallest count forwarded by the
// producer executors it subscribes to: barrier k is aligned once every
// producer has delivered it, on every subscription.
func TestBarriersAlignOnBothRuntimes(t *testing.T) {
	sys := Flink()
	sys.CheckpointInterval = 2_400_000 // 1 ms at the Table III clock
	shapes := []struct {
		name  string
		build func() *Topology
		rate  float64 // source events per second per source executor
	}{
		{"wc", func() *Topology { return nopWC(60) }, 3000},        // 20 ms
		{"fan", func() *Topology { return fanTopology(20) }, 3000}, // 20 ms
	}
	for _, shape := range shapes {
		sim, err := RunSim(shape.build(), SimConfig{System: sys, Seed: 3, Sockets: 1, BatchSize: 2, SourceRate: shape.rate})
		if err != nil {
			t.Fatal(err)
		}
		nat, err := RunNative(shape.build(), NativeConfig{System: sys, Seed: 3, BatchSize: 2, SourceRate: shape.rate})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name string
			res  *Result
		}{{"sim", sim}, {"native", nat}} {
			checkBarriers(t, shape.name+"/"+run.name, shape.build(), run.res)
		}
	}
}

// checkBarriers checks res's per-executor barrier counts against the
// topology's subscriptions.
func checkBarriers(t *testing.T, name string, topo *Topology, res *Result) {
	t.Helper()
	xt, err := BuildExecTopology(topo, Flink())
	if err != nil {
		t.Fatal(err)
	}
	refs := ExecGraph(xt)
	if len(refs) != len(res.Executors) {
		t.Fatalf("%s: %d executors in the result, %d in the graph", name, len(res.Executors), len(refs))
	}
	byOp := map[string][]int64{}
	for i, ref := range refs {
		byOp[ref.Op] = append(byOp[ref.Op], res.Executors[i].Barriers)
	}
	for _, n := range xt.Nodes() {
		if n.IsSource() {
			t.Logf("%s: %s injected %v barriers", name, n.Name, byOp[n.Name])
			for i, b := range byOp[n.Name] {
				if b < 1 {
					t.Errorf("%s: source %s[%d] injected no barrier", name, n.Name, i)
				}
			}
			continue
		}
		want := int64(-1)
		for _, sub := range n.Subs {
			for _, b := range byOp[sub.Operator] {
				if want < 0 || b < want {
					want = b
				}
			}
		}
		for i, got := range byOp[n.Name] {
			if got != want {
				t.Errorf("%s: %s[%d] aligned %d barriers, want %d", name, n.Name, i, got, want)
			}
		}
	}
}
