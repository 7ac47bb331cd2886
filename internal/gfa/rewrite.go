package gfa

import (
	"context"
	"errors"
	"fmt"

	"dtdinfer/internal/budget"
	"dtdinfer/internal/regex"
	smp "dtdinfer/internal/sample"
	"dtdinfer/internal/soa"
)

// ErrNoSORE is reported by Rewrite when the input automaton has no
// equivalent SORE (for example because the sample was not representative,
// leaving edges missing — the situation iDTD repairs).
var ErrNoSORE = errors.New("gfa: automaton is not equivalent to any SORE")

// ErrEmpty is reported when the automaton has no states: the empty language
// and the language {ε} have no SORE (ε is not expressible).
var ErrEmpty = errors.New("gfa: automaton has no symbols")

// Saturate applies rewrite rules until none is applicable, trying them in
// the fixed order optional, self-loop, concatenation, disjunction (the
// result does not depend on this order for automata equivalent to a SORE —
// Claim 2 of the paper — but a fixed order makes runs reproducible). It
// returns the number of rule applications.
func (g *GFA) Saturate() int {
	steps, _ := g.SaturateContext(context.Background())
	return steps
}

// SaturateContext is Saturate with a cancellation checkpoint before every
// rule application — the rewrite hot loop can run thousands of steps on
// large automata, and each step is cheap enough that a per-step ctx.Err()
// is lost in the noise. It returns the steps applied so far alongside any
// context error.
func (g *GFA) SaturateContext(ctx context.Context) (int, error) {
	steps := 0
	for {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		switch {
		case g.TryOptional():
		case g.TrySelfLoop():
		case g.TryConcat():
		case g.TryDisjunction():
		default:
			return steps, nil
		}
		steps++
	}
}

// Rewrite implements Algorithm 1: it transforms a single occurrence
// automaton into an equivalent SORE (L(result) = L(A), including ε), or
// fails with ErrNoSORE when no equivalent SORE exists. The result is
// normalized to use the Kleene star for (r+)? forms, as the paper's
// post-processing step prescribes.
func Rewrite(a *soa.SOA) (*regex.Expr, error) {
	return RewriteContext(context.Background(), a)
}

// RewriteContext is Rewrite under a context, honoring the state budget the
// context carries and checking for cancellation inside the rewrite loop.
func RewriteContext(ctx context.Context, a *soa.SOA) (*regex.Expr, error) {
	if len(a.Symbols()) == 0 {
		return nil, ErrEmpty
	}
	if err := budget.CheckStates(ctx, len(a.Symbols())); err != nil {
		return nil, err
	}
	g := FromSOA(a)
	if _, err := g.SaturateContext(ctx); err != nil {
		return nil, err
	}
	return g.Result()
}

// InferSample runs rewrite (without repair rules) over the 2T-INF
// automaton of a counted, interned sample — the repair-free half of iDTD,
// used to reproduce Figure 4's "rewrite" curve.
func InferSample(s *smp.Set) (*regex.Expr, error) {
	return Rewrite(soa.InferSample(s))
}

// InferSampleContext is InferSample under a context.
func InferSampleContext(ctx context.Context, s *smp.Set) (*regex.Expr, error) {
	return RewriteContext(ctx, soa.InferSample(s))
}

// Result extracts the regular expression of a saturated GFA. Besides the
// strictly final shape it accepts the one remaining configuration with an
// unconsumed ε edge — a single node r with edges source→r, r→sink and
// source→sink — which denotes r? exactly.
func (g *GFA) Result() (*regex.Expr, error) {
	if g.IsFinal() {
		return regex.Simplify(g.FinalExpr()), nil
	}
	if id := only(g.live); id >= 0 && g.succ[SourceID].Count() == 2 && g.succ[SourceID].Has(SinkID) &&
		g.succ[SourceID].Has(id) && g.pred[SinkID].Count() == 2 && g.pred[SinkID].Has(id) &&
		only(g.succ[id]) == SinkID && only(g.pred[id]) == SourceID {
		return regex.Simplify(regex.Opt(g.labels[id])), nil
	}
	return nil, fmt.Errorf("%w (stuck with %d states)", ErrNoSORE, g.NumNodes())
}
