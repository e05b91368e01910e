// Confidence: the paper's §5.3 proposal — use a branch's (taken,
// transition) class as a *static* confidence estimate, with no runtime
// accuracy-tracking hardware — compared against Jacobsen-style dynamic
// estimators.
//
// A branch's joint class determines its expected miss rate (Figures
// 13/14); branches in cheap classes get high confidence, branches near
// the 5/5 cell get low confidence. We measure how well each estimator
// separates correct from incorrect PAs(8) predictions.
package main

import (
	"fmt"
	"log"

	"btr"
	"btr/internal/bpred"
	"btr/internal/conf"
	"btr/internal/core"
	"btr/internal/sim"
	"btr/internal/trace"
)

func main() {
	spec, err := btr.FindWorkload("perl", "scrabbl.pl")
	if err != nil {
		log.Fatal(err)
	}
	const scale = 0.05

	// Profile and estimate per-class miss rates from a calibration run of
	// the same predictor (self-calibration stands in for Fig 13's table).
	profiler, classes := sim.ProfileInput(spec, scale)
	fmt.Printf("profiled %d dynamic branches over %d static sites\n",
		profiler.Events(), profiler.Sites())

	var missRate [core.NumClasses][core.NumClasses]float64
	{
		var miss, exec [core.NumClasses][core.NumClasses]int64
		p := bpred.NewPAs(8)
		sink := trace.SinkFunc(func(pc uint64, taken bool) {
			jc := classes[pc]
			exec[jc.Taken][jc.Transition]++
			if p.Predict(pc) != taken {
				miss[jc.Taken][jc.Transition]++
			}
			p.Update(pc, taken)
		})
		spec.Run(sink, scale)
		for t := 0; t < core.NumClasses; t++ {
			for tr := 0; tr < core.NumClasses; tr++ {
				if exec[t][tr] > 0 {
					missRate[t][tr] = float64(miss[t][tr]) / float64(exec[t][tr])
				}
			}
		}
	}

	estimators := []conf.Estimator{
		conf.NewClassStaticTable(core.NewClassTable(classes), missRate, 0.08),
		conf.NewOneLevel(12, 15, 8),
		conf.NewTwoLevel(12, 10, 15, 8),
	}
	quads := make([]conf.Quadrants, len(estimators))

	predictor := bpred.NewPAs(8)
	sink := trace.SinkFunc(func(pc uint64, taken bool) {
		correct := predictor.Predict(pc) == taken
		predictor.Update(pc, taken)
		for i, est := range estimators {
			quads[i].Observe(est.HighConfidence(pc), correct)
			est.Update(pc, correct)
		}
	})
	spec.Run(sink, scale)

	fmt.Printf("%s: confidence estimation over PAs(k=8), %d predictions\n\n",
		spec.Name(), quads[0].Total())
	fmt.Printf("%-22s %8s %8s %8s\n", "estimator", "SENS", "PVN", "SPEC")
	for i, est := range estimators {
		q := quads[i]
		fmt.Printf("%-22s %7.2f%% %7.2f%% %7.2f%%\n",
			est.Name(), 100*q.Sensitivity(), 100*q.PredictiveValueNegative(),
			100*q.Specificity())
	}
	fmt.Println("\nSENS: share of mispredictions flagged low-confidence;")
	fmt.Println("PVN:  share of low-confidence flags that were real misses;")
	fmt.Println("the class-static estimator uses zero accuracy-tracking hardware.")
}
