package ring

import "testing"

// FuzzMPSCMatchesReference drives an MPSC of one to four small lanes from
// one goroutine through a stream of TryPush and TryPop calls and holds it
// to per-lane slice queues drained with the same round-robin cursor: each
// lane's capacity, every call's result, the value and lane of every pop,
// and every lane's Len after every call must match.
//
// The first byte's low two bits plus one are the lane count. The second
// byte holds two bits b per lane, which request a capacity of 2b+1 (1, 3,
// 5 or 7), so every lane rounds its request up to a power of two of at
// least 2. Each further byte is one call: an odd byte is a TryPop, an even
// byte a TryPush of the next value, counting from 1, onto lane (byte>>1)
// modulo the lane count.
func FuzzMPSCMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		n := 1 + int(in[0]&3)
		m := NewMPSC[int]()
		lanes := make([]*SPSC[int], n)
		ref := make([][]int, n)
		caps := make([]int, n)
		for l := range lanes {
			req := 1 + 2*int(in[1]>>(2*l)&3)
			lanes[l] = m.AddProducer(req)
			caps[l] = 2
			for caps[l] < req {
				caps[l] <<= 1
			}
			if got := lanes[l].Cap(); got != caps[l] {
				t.Fatalf("lane %d: capacity %d for a request of %d, want %d", l, got, req, caps[l])
			}
		}
		next, value := 0, 0
		for p, op := range in[2:] {
			if op&1 == 0 {
				l := int(op>>1) % n
				value++
				want := len(ref[l]) < caps[l]
				if want {
					ref[l] = append(ref[l], value)
				}
				if got := lanes[l].TryPush(value); got != want {
					t.Fatalf("call %d: lane %d TryPush(%d) = %v, reference %v", p, l, value, got, want)
				}
			} else {
				wantV, wantL, wantOK := 0, 0, false
				for range n {
					l := next
					next = (next + 1) % n
					if len(ref[l]) > 0 {
						wantV, wantL, wantOK = ref[l][0], l, true
						ref[l] = ref[l][1:]
						break
					}
				}
				if v, l, ok := m.TryPop(); v != wantV || l != wantL || ok != wantOK {
					t.Fatalf("call %d: TryPop = %d from lane %d, %v; reference %d from lane %d, %v", p, v, l, ok, wantV, wantL, wantOK)
				}
			}
			for l := range lanes {
				if got := lanes[l].Len(); got != len(ref[l]) {
					t.Fatalf("call %d: lane %d Len %d, reference %d", p, l, got, len(ref[l]))
				}
			}
		}
	})
}
