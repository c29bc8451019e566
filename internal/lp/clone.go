package lp

// Sense returns the optimisation sense of the problem.
func (p *Problem) Sense() Sense { return p.sense }

// CloneStructure returns a deep copy of the problem (variables, bounds,
// objective and constraint rows). The copy can be mutated freely without
// affecting the original; the branch-and-bound MILP solver uses this to add
// per-node variable fixings.
func (p *Problem) CloneStructure() *Problem {
	c := &Problem{
		sense:     p.sense,
		objective: append([]float64(nil), p.objective...),
		upper:     append([]float64(nil), p.upper...),
		lower:     append([]float64(nil), p.lower...),
		rows:      make([]Constraint, len(p.rows)),
	}
	for i, r := range p.rows {
		c.rows[i] = Constraint{
			Terms: c.copyTerms(r.Terms),
			Op:    r.Op,
			RHS:   r.RHS,
		}
	}
	return c
}
