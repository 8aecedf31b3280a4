package hw

// TakePooled removes every machine of spec from the free list and returns
// them, oldest first.
func TakePooled(spec MachineSpec) []*Machine {
	p := &machinePool
	p.Lock()
	defer p.Unlock()
	var out, keep []*Machine
	for _, m := range p.free {
		if m.Spec == spec {
			out = append(out, m)
		} else {
			keep = append(keep, m)
		}
	}
	p.free = keep
	return out
}

// Built returns the cores m has built and the sockets whose LLC it has
// built.
func (m *Machine) Built() (cores, llcs []int) {
	for _, c := range m.cores {
		cores = append(cores, c.id)
	}
	for _, s := range m.sockets {
		if s.llc != nil {
			llcs = append(llcs, s.id)
		}
	}
	return cores, llcs
}
