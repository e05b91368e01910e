package conf

import (
	"testing"

	"btr/internal/core"
)

// TestObserveChunkMatchesPerEvent: every estimator's chunk kernel leaves
// the same quadrants and state as the ask-record-train protocol run event
// by event, across chunk boundaries and partial words, over dense and
// sparse PC layouts.
func TestObserveChunkMatchesPerEvent(t *testing.T) {
	layouts := map[string]func(site uint64) uint64{
		"dense":  func(s uint64) uint64 { return 0x400000 + s<<2 },
		"sparse": func(s uint64) uint64 { return ((s + 1) * 0x9E3779B97F4A7C15) &^ 3 },
	}
	for lname, pcOf := range layouts {
		const n, sites = 5000, 200
		pcs := make([]uint64, n)
		wrong := make([]uint64, (n+63)/64)
		r := uint64(0x9E3779B97F4A7C15)
		for i := range pcs {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			site := r % sites
			pcs[i] = pcOf(site)
			// Per-site accuracy from always right to always wrong.
			if (r>>32)%sites < site {
				wrong[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		classes := make(core.ClassMap)
		var missRate [core.NumClasses][core.NumClasses]float64
		for s := uint64(0); s < sites; s += 2 { // odd sites stay unprofiled
			jc := core.JointClass{Taken: core.Class(s % 11), Transition: core.Class(s / 11 % 11)}
			classes[pcOf(s)] = jc
			missRate[jc.Taken][jc.Transition] = float64(s) / sites
		}
		builders := map[string]func() Estimator{
			"class-static": func() Estimator {
				return NewClassStaticTable(core.NewClassTable(classes), missRate, 0.3)
			},
			"1level": func() Estimator { return NewOneLevel(6, 15, 8) },
			"2level": func() Estimator { return NewTwoLevel(6, 5, 15, 8) },
		}
		for name, build := range builders {
			batch, scalar := build().(ChunkObserver), build()
			var qb, qs Quadrants
			for start := 0; start < n; start += 333 {
				m := min(333, n-start)
				cp := pcs[start : start+m]
				cw := make([]uint64, (m+63)/64)
				for i := 0; i < m; i++ {
					if wrong[(start+i)>>6]&(1<<(uint(start+i)&63)) != 0 {
						cw[i>>6] |= 1 << (uint(i) & 63)
					}
				}
				batch.ObserveChunk(cp, cw, m, &qb)
				for i := 0; i < m; i++ {
					correct := cw[i>>6]&(1<<(uint(i)&63)) == 0
					qs.Observe(scalar.HighConfidence(cp[i]), correct)
					scalar.Update(cp[i], correct)
				}
			}
			if qb != qs {
				t.Errorf("%s/%s: kernel %+v, per-event %+v", lname, name, qb, qs)
			}
			if qs.Total() != n || qs.HighCorrect == 0 || qs.LowWrong == 0 {
				t.Errorf("%s/%s: degenerate quadrants %+v", lname, name, qs)
			}
		}
	}
}
