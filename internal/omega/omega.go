// Package omega implements the "omega-test-like" integer linear machinery
// the paper's dependence post-processor uses (§4.2.1): solving
//
//	start₁ + stride₁·k₁ = start₂ + stride₂·k₂,  0 ≤ kᵢ < countᵢ
//
// via extended-GCD linear Diophantine analysis. The package works on the
// two-variable equations that arise from pairs of LMAD dimensions; package
// depend composes one equation per dimension and counts solutions.
package omega

// FloorDiv returns ⌊a/b⌋ for b ≠ 0 (division rounding toward -∞).
func FloorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// CeilDiv returns ⌈a/b⌉ for b ≠ 0 (division rounding toward +∞).
func CeilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// GCD returns the non-negative greatest common divisor; GCD(0,0) = 0.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ExtGCD returns (g, x, y) with a·x + b·y = g = GCD(a,b) (g ≥ 0).
func ExtGCD(a, b int64) (g, x, y int64) {
	if b == 0 {
		switch {
		case a > 0:
			return a, 1, 0
		case a < 0:
			return -a, -1, 0
		default:
			return 0, 0, 0
		}
	}
	g, x1, y1 := ExtGCD(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

// Kind classifies the solution set of one two-variable equation.
type Kind int

// Solution-set kinds.
const (
	None Kind = iota // no integer solutions
	All              // every (x, y) is a solution (0 = 0)
	Lin              // a one-parameter family (a lattice line)
)

// Line parametrizes a one-dimensional solution family:
// x = X0 + Dx·t, y = Y0 + Dy·t for t ∈ ℤ. (Dx, Dy) ≠ (0, 0).
type Line struct {
	X0, Y0, Dx, Dy int64
}

// At returns the point at parameter t.
func (l Line) At(t int64) (x, y int64) { return l.X0 + l.Dx*t, l.Y0 + l.Dy*t }

// Set is the solution set of a linear Diophantine equation in two variables.
type Set struct {
	Kind Kind
	Line Line // valid when Kind == Lin
}

// Solve returns the integer solution set of a·x + b·y = c.
func Solve(a, b, c int64) Set {
	if a == 0 && b == 0 {
		if c == 0 {
			return Set{Kind: All}
		}
		return Set{Kind: None}
	}
	g, x0, y0 := ExtGCD(a, b)
	if c%g != 0 {
		return Set{Kind: None}
	}
	m := c / g
	// Particular solution (x0·m, y0·m); homogeneous solutions are
	// t·(b/g, -a/g).
	return Set{Kind: Lin, Line: Line{
		X0: x0 * m,
		Y0: y0 * m,
		Dx: b / g,
		Dy: -a / g,
	}}
}

// IntersectLine substitutes line l into a·x + b·y = c and returns the set of
// parameters t for which the constrained point also satisfies the equation:
// kind None (no t), All (every t), or Lin with the single valid t in Line.X0
// (Dx = Dy = 0 is not used; a single parameter value is returned as a
// degenerate line at t with zero direction).
func IntersectLine(l Line, a, b, c int64) (Kind, int64) {
	coeff := a*l.Dx + b*l.Dy
	rhs := c - a*l.X0 - b*l.Y0
	if coeff == 0 {
		if rhs == 0 {
			return All, 0
		}
		return None, 0
	}
	if rhs%coeff != 0 {
		return None, 0
	}
	return Lin, rhs / coeff
}

// Interval is a (possibly empty, possibly unbounded) integer interval.
type Interval struct {
	Lo, Hi         int64
	LoOpen, HiOpen bool // true means unbounded on that side
	Empty          bool
}

// AllInts is the unbounded interval.
func AllInts() Interval { return Interval{LoOpen: true, HiOpen: true} }

// EmptyInterval is the empty interval.
func EmptyInterval() Interval { return Interval{Empty: true} }

// Bounded returns the interval [lo, hi] (empty if lo > hi).
func Bounded(lo, hi int64) Interval {
	if lo > hi {
		return EmptyInterval()
	}
	return Interval{Lo: lo, Hi: hi}
}

// AtLeast returns [lo, +∞).
func AtLeast(lo int64) Interval { return Interval{Lo: lo, HiOpen: true} }

// AtMost returns (-∞, hi].
func AtMost(hi int64) Interval { return Interval{Hi: hi, LoOpen: true} }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	if iv.Empty || other.Empty {
		return EmptyInterval()
	}
	out := Interval{LoOpen: iv.LoOpen && other.LoOpen, HiOpen: iv.HiOpen && other.HiOpen}
	switch {
	case iv.LoOpen:
		out.Lo = other.Lo
	case other.LoOpen:
		out.Lo = iv.Lo
	default:
		out.Lo = max64(iv.Lo, other.Lo)
	}
	switch {
	case iv.HiOpen:
		out.Hi = other.Hi
	case other.HiOpen:
		out.Hi = iv.Hi
	default:
		out.Hi = min64(iv.Hi, other.Hi)
	}
	if !out.LoOpen && !out.HiOpen && out.Lo > out.Hi {
		return EmptyInterval()
	}
	return out
}

// Count returns the number of integers in the interval; ok is false when the
// interval is unbounded.
func (iv Interval) Count() (n uint64, ok bool) {
	if iv.Empty {
		return 0, true
	}
	if iv.LoOpen || iv.HiOpen {
		return 0, false
	}
	return uint64(iv.Hi-iv.Lo) + 1, true
}

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t int64) bool {
	if iv.Empty {
		return false
	}
	if !iv.LoOpen && t < iv.Lo {
		return false
	}
	if !iv.HiOpen && t > iv.Hi {
		return false
	}
	return true
}

// LinearGE returns the t-interval on which a·t + b ≥ 0.
func LinearGE(a, b int64) Interval {
	switch {
	case a == 0:
		if b >= 0 {
			return AllInts()
		}
		return EmptyInterval()
	case a > 0:
		return AtLeast(CeilDiv(-b, a))
	default:
		// a < 0: a·t ≥ -b  ⇔  t ≤ b/(-a)
		return AtMost(FloorDiv(b, -a))
	}
}

// LinearLT returns the t-interval on which a·t + b < 0.
func LinearLT(a, b int64) Interval {
	switch {
	case a == 0:
		if b < 0 {
			return AllInts()
		}
		return EmptyInterval()
	case a > 0:
		// t < -b/a  ⇔  t ≤ ceil(-b/a) - 1 when exact, floor otherwise
		return AtMost(ceilMinusOne(-b, a))
	default:
		// a < 0: t > -b/a  ⇔  t ≥ floor(-b/a) + 1 when exact, ceil otherwise
		return AtLeast(floorPlusOne(-b, a))
	}
}

// ceilMinusOne returns the largest integer t with t < p/q for q > 0.
func ceilMinusOne(p, q int64) int64 {
	f := FloorDiv(p, q)
	if p%q == 0 {
		return f - 1
	}
	return f
}

// floorPlusOne returns the smallest integer t with t > p/q for q < 0 (i.e.
// t·q < p flips). It computes the smallest t with t > p/q.
func floorPlusOne(p, q int64) int64 {
	// p/q with q < 0 equals (-p)/(-q) with positive denominator.
	return FloorDiv(-p, -q) + 1
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
