package core

// Distribution is the dynamic-occurrence-weighted joint distribution of
// branches over (taken class, transition class) cells — the data behind
// Table 2 and Figures 1 and 2. Each static branch contributes its dynamic
// execution count to its joint cell, so a loop branch executed a million
// times weighs a million times more than a branch executed once, exactly
// as in the paper ("weighted by their dynamic occurrence").
type Distribution struct {
	// Weight[t][tr] is the total dynamic executions of branches in taken
	// class t and transition class tr.
	Weight [NumClasses][NumClasses]float64
	// Total is the sum of all weights.
	Total float64
	// StaticCount[t][tr] is the number of static branches in the cell.
	StaticCount [NumClasses][NumClasses]int
}

// AddProfiles accumulates every profile into the distribution. It may be
// called once per benchmark to aggregate a whole suite; each branch is
// classified within the profile set it came from.
func (d *Distribution) AddProfiles(profiles map[uint64]*Profile) {
	for _, p := range profiles {
		if p.Execs == 0 {
			continue
		}
		jc := ClassOfProfile(p)
		d.Weight[jc.Taken][jc.Transition] += float64(p.Execs)
		d.StaticCount[jc.Taken][jc.Transition]++
		d.Total += float64(p.Execs)
	}
}

// Add accumulates other into d. Weights are integer-valued and far
// below 2^53, so the sums are exact: a suite built from per-input
// distributions equals one built from every input's profiles.
func (d *Distribution) Add(other *Distribution) {
	for t := range d.Weight {
		for tr := range d.Weight[t] {
			d.Weight[t][tr] += other.Weight[t][tr]
			d.StaticCount[t][tr] += other.StaticCount[t][tr]
		}
	}
	d.Total += other.Total
}

// Fraction returns the fraction of dynamic executions in the joint cell.
func (d *Distribution) Fraction(taken, transition Class) float64 {
	if d.Total == 0 {
		return 0
	}
	return d.Weight[taken][transition] / d.Total
}

// TakenMarginal returns the fraction of dynamic executions per taken class
// (Figure 1).
func (d *Distribution) TakenMarginal() [NumClasses]float64 {
	var out [NumClasses]float64
	if d.Total == 0 {
		return out
	}
	for t := 0; t < NumClasses; t++ {
		var sum float64
		for tr := 0; tr < NumClasses; tr++ {
			sum += d.Weight[t][tr]
		}
		out[t] = sum / d.Total
	}
	return out
}

// TransitionMarginal returns the fraction of dynamic executions per
// transition class (Figure 2).
func (d *Distribution) TransitionMarginal() [NumClasses]float64 {
	var out [NumClasses]float64
	if d.Total == 0 {
		return out
	}
	for tr := 0; tr < NumClasses; tr++ {
		var sum float64
		for t := 0; t < NumClasses; t++ {
			sum += d.Weight[t][tr]
		}
		out[tr] = sum / d.Total
	}
	return out
}

// CoverageTaken returns the fraction of dynamic executions whose branch
// falls in any of the given taken classes.
func (d *Distribution) CoverageTaken(classes ...Class) float64 {
	marg := d.TakenMarginal()
	var sum float64
	for _, c := range classes {
		if c.Valid() {
			sum += marg[c]
		}
	}
	return sum
}

// CoverageTransition returns the fraction of dynamic executions whose
// branch falls in any of the given transition classes.
func (d *Distribution) CoverageTransition(classes ...Class) float64 {
	marg := d.TransitionMarginal()
	var sum float64
	for _, c := range classes {
		if c.Valid() {
			sum += marg[c]
		}
	}
	return sum
}

// Coverage reproduces the arithmetic of §4.2: how many dynamic branches
// each classification scheme identifies as cheap to predict (assignable to
// little-or-no-history predictors), and how many branches taken-rate
// classification therefore misses.
type Coverage struct {
	// TakenEasy is the coverage of taken classes {0, 10} — the branches
	// Chang et al. remove from the pattern history tables.
	// Paper: 62.90%.
	TakenEasy float64
	// TransitionEasyGAs is the coverage of transition classes {0, 1},
	// which perform best with short global history. Paper: 71.62%.
	TransitionEasyGAs float64
	// TransitionEasyPAs additionally includes transition classes {9, 10},
	// which a per-address predictor captures with one or two history
	// bits. Paper: 72.19%.
	TransitionEasyPAs float64
	// MissedGAs = TransitionEasyGAs - TakenEasy. Paper: 8.72%.
	MissedGAs float64
	// MissedPAs = TransitionEasyPAs - TakenEasy. Paper: 9.29%.
	MissedPAs float64
}

// ComputeCoverage evaluates the §4.2 coverage comparison on d.
func ComputeCoverage(d *Distribution) Coverage {
	c := Coverage{
		TakenEasy:         d.CoverageTaken(0, 10),
		TransitionEasyGAs: d.CoverageTransition(0, 1),
		TransitionEasyPAs: d.CoverageTransition(0, 1, 9, 10),
	}
	c.MissedGAs = c.TransitionEasyGAs - c.TakenEasy
	c.MissedPAs = c.TransitionEasyPAs - c.TakenEasy
	return c
}

// Misclassified reports whether the joint cell holds branches that
// taken-rate classification wrongly treats as hard to predict: branches
// with low transition rate (classes 0-1; or, for a per-address predictor,
// also the alternating classes 9-10) whose taken rate is not extreme.
// These are the bold cells of Table 2.
func Misclassified(jc JointClass, perAddress bool) bool {
	if jc.Taken == 0 || jc.Taken == 10 {
		return false // already identified by taken rate
	}
	if jc.Transition <= 1 {
		return true
	}
	return perAddress && jc.Transition >= 9
}

// MisclassifiedFraction returns the total dynamic fraction in misclassified
// cells (the highlighted mass of Table 2).
func (d *Distribution) MisclassifiedFraction(perAddress bool) float64 {
	var sum float64
	for t := Class(0); t < NumClasses; t++ {
		for tr := Class(0); tr < NumClasses; tr++ {
			if Misclassified(JointClass{Taken: t, Transition: tr}, perAddress) {
				sum += d.Fraction(t, tr)
			}
		}
	}
	return sum
}
