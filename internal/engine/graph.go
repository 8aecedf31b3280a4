package engine

// AckStream is the system stream carrying Storm-style XOR ack messages.
const AckStream = "__ack"

// AckerName is the name of the injected acker operator.
const AckerName = "__acker"

// BuildExecTopology derives the executable topology for a system profile:
// when acking is enabled it adds an __ack stream to every user node and an
// acker operator subscribed (fields-grouped by root ID) to all of them,
// exactly mirroring Storm's tuple-tracking plumbing. The input topology is
// not modified.
func BuildExecTopology(t *Topology, sys SystemProfile) (*Topology, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	out := NewTopology(t.Name)
	for _, n := range t.nodes {
		cp := *n
		cp.Streams = append([]StreamSpec(nil), n.Streams...)
		cp.Subs = append([]Subscription(nil), n.Subs...)
		out.add(&cp)
	}
	if sys.AckEnabled {
		acker := &Node{
			Name:        AckerName,
			Parallelism: sys.AckerExecutors,
			NewOp:       func() Operator { return NewAcker() },
			System:      true,
			Profile: WorkProfile{
				CodeBytes:             6 << 10,
				UopsPerTuple:          180,
				BranchesPerTuple:      6,
				StateBytes:            512 << 10, // pending-root XOR table
				StateAccessesPerTuple: 2,
			},
		}
		for _, n := range out.nodes {
			n.Streams = append(n.Streams, Stream(AckStream, "root", "xor"))
			acker.Subs = append(acker.Subs, Subscription{
				Operator: n.Name, Stream: AckStream, Group: Fields("root"),
			})
		}
		out.add(acker)
	}
	return out, nil
}

// Acker implements Storm's XOR tuple tracking: every executor reports, per
// root tuple, the XOR of the edge IDs it consumed and produced. When a
// root's running XOR returns to zero, the whole tuple tree has been fully
// processed.
type Acker struct {
	pending   map[int64]int64
	completed int64
}

// NewAcker returns an empty acker.
func NewAcker() *Acker { return &Acker{pending: make(map[int64]int64)} }

// Prepare implements Operator.
func (a *Acker) Prepare(Context) {}

// Process implements Operator. An ack tuple carries its (root, xor) pair
// in the Root and Edge fields, not in boxed Values: the ack path is hot
// enough that two interface allocations per ack are measurable.
func (a *Acker) Process(_ Context, t Tuple) {
	root := t.Root
	v := a.pending[root] ^ t.Edge
	if v == 0 {
		delete(a.pending, root)
		a.completed++
	} else {
		a.pending[root] = v
	}
}

// Completed returns the number of fully acked tuple trees.
func (a *Acker) Completed() int64 { return a.completed }

// Pending returns the number of tuple trees still being tracked.
func (a *Acker) Pending() int { return len(a.pending) }

// ExecutorRef identifies one executor in the execution graph.
type ExecutorRef struct {
	Global int // global executor index across the topology
	Op     string
	Index  int // index within the operator
}

// ExecGraph enumerates executors for a topology in deterministic order:
// nodes in insertion order, executor indices ascending.
func ExecGraph(t *Topology) []ExecutorRef {
	var refs []ExecutorRef
	g := 0
	for _, n := range t.nodes {
		for i := 0; i < n.Parallelism; i++ {
			refs = append(refs, ExecutorRef{Global: g, Op: n.Name, Index: i})
			g++
		}
	}
	return refs
}
