package automata

import "dtdinfer/internal/regex"

// ExprEquivalent reports whether L(e1) = L(e2).
func ExprEquivalent(e1, e2 *regex.Expr) bool {
	return Equivalent(FromExpr(e1), FromExpr(e2))
}

// ExprIncludes reports whether L(sub) ⊆ L(super).
func ExprIncludes(super, sub *regex.Expr) bool {
	return Includes(FromExpr(super), FromExpr(sub))
}

// ExprMember reports whether the string w of element names belongs to L(e).
func ExprMember(e *regex.Expr, w []string) bool {
	return Glushkov(e).Member(w)
}
