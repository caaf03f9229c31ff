//! Groupoid terms and equational implications (Theorem 3's raw material).
//!
//! An *equational implication* (ei) is a sentence
//! `∀y₁…y_n (s₁ = t₁ ∧ … ∧ s_k = t_k → s_{k+1} = t_{k+1})` whose terms are
//! built from the variables by a binary multiplication. Gurevich–Lewis
//! (the paper's \[21\]) proved that `{φ : φ holds in all semigroups}` and
//! `{φ : φ fails in some finite semigroup}` are recursively inseparable;
//! Theorem 3 pushes that through the \[7\]-style reduction implemented in
//! [`crate::reduction`].

use std::fmt;

/// A term over variables `y₀, y₁, …` with binary multiplication.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable, by index.
    Var(u8),
    /// A product of two terms.
    Mul(Box<Term>, Box<Term>),
}

impl Term {
    /// Shorthand product. Not `std::ops::Mul`: this is a by-value static
    /// constructor over two terms, not an operator on `self`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Term, b: Term) -> Term {
        Term::Mul(Box::new(a), Box::new(b))
    }

    /// The largest variable index occurring, if any.
    pub fn max_var(&self) -> Option<u8> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Mul(a, b) => match (a.max_var(), b.max_var()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
        }
    }

    /// Number of multiplications in the term.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) => 0,
            Term::Mul(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Parses `x`, `y`, `z`, `w` or `y0..y9` variables combined with `*`
    /// and parentheses; `*` is *left*-associative: `x*y*z = (x*y)*z`.
    pub fn parse(s: &str) -> Result<Term, String> {
        let tokens: Vec<char> = s.chars().filter(|c| !c.is_whitespace()).collect();
        let (t, rest) = parse_expr(&tokens)?;
        if rest.is_empty() {
            Ok(t)
        } else {
            Err(format!("trailing input: {rest:?}"))
        }
    }

    /// Evaluates the term in a finite groupoid given by `table` (a
    /// size×size multiplication table) under `assignment`.
    pub fn eval(&self, table: &[Vec<usize>], assignment: &[usize]) -> usize {
        match self {
            Term::Var(v) => assignment[*v as usize],
            Term::Mul(a, b) => table[a.eval(table, assignment)][b.eval(table, assignment)],
        }
    }
}

fn parse_expr(tokens: &[char]) -> Result<(Term, &[char]), String> {
    let (mut acc, mut rest) = parse_atom(tokens)?;
    while let Some('*') = rest.first() {
        let (rhs, r) = parse_atom(&rest[1..])?;
        acc = Term::mul(acc, rhs);
        rest = r;
    }
    Ok((acc, rest))
}

fn parse_atom(tokens: &[char]) -> Result<(Term, &[char]), String> {
    match tokens.first() {
        Some('(') => {
            let (t, rest) = parse_expr(&tokens[1..])?;
            match rest.first() {
                Some(')') => Ok((t, &rest[1..])),
                _ => Err("missing ')'".into()),
            }
        }
        Some('x') => Ok((Term::Var(0), &tokens[1..])),
        Some('z') => Ok((Term::Var(2), &tokens[1..])),
        Some('w') => Ok((Term::Var(3), &tokens[1..])),
        Some('y') => {
            // y alone is Var(1); y<digit> selects that index.
            if let Some(d) = tokens.get(1).and_then(|c| c.to_digit(10)) {
                Ok((Term::Var(d as u8), &tokens[2..]))
            } else {
                Ok((Term::Var(1), &tokens[1..]))
            }
        }
        other => Err(format!("unexpected token {other:?}")),
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(0) => write!(f, "x"),
            Term::Var(1) => write!(f, "y"),
            Term::Var(2) => write!(f, "z"),
            Term::Var(3) => write!(f, "w"),
            Term::Var(v) => write!(f, "y{v}"),
            Term::Mul(a, b) => write!(f, "({a}*{b})"),
        }
    }
}

/// An equation between two terms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Equation {
    /// Left term.
    pub lhs: Term,
    /// Right term.
    pub rhs: Term,
}

impl Equation {
    /// Parses `"x*y = y*x"`.
    pub fn parse(s: &str) -> Result<Equation, String> {
        let (l, r) = s.split_once('=').ok_or("equation needs '='")?;
        Ok(Equation {
            lhs: Term::parse(l)?,
            rhs: Term::parse(r)?,
        })
    }
}

/// An equational implication `premises → conclusion`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ei {
    /// Premise equations (may be empty).
    pub premises: Vec<Equation>,
    /// Conclusion equation.
    pub conclusion: Equation,
}

impl Ei {
    /// Parses `"x = y => x*z = y*z"` (premises `;`-separated, possibly
    /// empty before `=>`).
    pub fn parse(s: &str) -> Result<Ei, String> {
        let (pre, post) = s.split_once("=>").ok_or("ei needs '=>'")?;
        let premises = pre
            .split(';')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(Equation::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Ei {
            premises,
            conclusion: Equation::parse(post)?,
        })
    }

    /// Number of variables (max index + 1).
    pub fn var_count(&self) -> usize {
        self.premises
            .iter()
            .flat_map(|e| [&e.lhs, &e.rhs])
            .chain([&self.conclusion.lhs, &self.conclusion.rhs])
            .filter_map(|t| t.max_var())
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_left_associative() {
        let t = Term::parse("x*y*z").unwrap();
        assert_eq!(t, Term::mul(Term::mul(Term::Var(0), Term::Var(1)), Term::Var(2)));
        assert_eq!(t.to_string(), "((x*y)*z)");
        assert_eq!(t.size(), 2);
    }

    #[test]
    fn parse_parenthesized() {
        let t = Term::parse("x*(y*z)").unwrap();
        assert_eq!(t, Term::mul(Term::Var(0), Term::mul(Term::Var(1), Term::Var(2))));
        assert_ne!(t, Term::parse("x*y*z").unwrap());
    }

    #[test]
    fn parse_indexed_vars() {
        let t = Term::parse("y0*y5").unwrap();
        assert_eq!(t, Term::mul(Term::Var(0), Term::Var(5)));
        assert_eq!(t.max_var(), Some(5));
    }

    #[test]
    fn parse_errors() {
        assert!(Term::parse("x*").is_err());
        assert!(Term::parse("(x*y").is_err());
        assert!(Term::parse("q").is_err());
    }

    #[test]
    fn ei_parse_and_vars() {
        let ei = Ei::parse("x = y => x*z = y*z").unwrap();
        assert_eq!(ei.premises.len(), 1);
        assert_eq!(ei.var_count(), 3);
        let no_premise = Ei::parse("=> x*y = y*x").unwrap();
        assert!(no_premise.premises.is_empty());
    }

    #[test]
    fn eval_in_table() {
        // Left-zero semigroup on {0,1}: a·b = a.
        let table = vec![vec![0, 0], vec![1, 1]];
        let t = Term::parse("x*y").unwrap();
        assert_eq!(t.eval(&table, &[0, 1]), 0);
        assert_eq!(t.eval(&table, &[1, 0]), 1);
    }
}
