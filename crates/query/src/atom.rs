//! Atoms and typed variables of bipartite ∀CNF queries.
//!
//! The paper's restricted vocabulary (§2) has one unary symbol `R` over the
//! left domain, one unary symbol `T` over the right domain, and binary
//! symbols `S₁, …, S_p` over left × right. Logical variables are *sorted*:
//! `x`-variables range over the left domain, `y`-variables over the right,
//! so homomorphisms must preserve sorts.

use std::fmt;

/// A relational symbol of the bipartite vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Pred {
    /// The left unary symbol `R(x)`.
    R,
    /// The right unary symbol `T(y)`.
    T,
    /// A binary symbol `S_i(x, y)`.
    S(u32),
}

impl Pred {
    /// True iff this is a binary symbol.
    pub fn is_binary(&self) -> bool {
        matches!(self, Pred::S(_))
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::R => write!(f, "R"),
            Pred::T => write!(f, "T"),
            Pred::S(i) => write!(f, "S{i}"),
        }
    }
}

/// A sorted logical variable within a clause.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CVar {
    /// A left-domain variable `x_i`.
    X(u8),
    /// A right-domain variable `y_i`.
    Y(u8),
}

impl CVar {
    /// True iff a left-domain (`x`) variable.
    pub fn is_x(&self) -> bool {
        matches!(self, CVar::X(_))
    }

    /// True iff a right-domain (`y`) variable.
    pub fn is_y(&self) -> bool {
        matches!(self, CVar::Y(_))
    }

    /// The index `i` of `x_i` or `y_i`.
    pub fn index(&self) -> u8 {
        match self {
            CVar::X(i) | CVar::Y(i) => *i,
        }
    }
}

impl fmt::Display for CVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CVar::X(i) => write!(f, "x{i}"),
            CVar::Y(i) => write!(f, "y{i}"),
        }
    }
}

/// An atom occurring in a clause: `R(x)`, `T(y)`, or `S_i(x, y)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom {
    /// `R(x)`.
    R(CVar),
    /// `T(y)`.
    T(CVar),
    /// `S_i(x, y)`.
    S(u32, CVar, CVar),
}

impl Atom {
    /// The predicate symbol.
    pub fn pred(&self) -> Pred {
        match self {
            Atom::R(_) => Pred::R,
            Atom::T(_) => Pred::T,
            Atom::S(i, _, _) => Pred::S(*i),
        }
    }

    /// The variables of the atom, in argument order.
    pub fn vars(&self) -> Vec<CVar> {
        match self {
            Atom::R(v) | Atom::T(v) => vec![*v],
            Atom::S(_, x, y) => vec![*x, *y],
        }
    }

    /// The `x`-argument, if any (the variable of `R`, the first of `S`).
    pub fn x_var(&self) -> Option<CVar> {
        match self {
            Atom::R(x) | Atom::S(_, x, _) => Some(*x),
            Atom::T(_) => None,
        }
    }

    /// The `y`-argument, if any (the variable of `T`, the second of `S`).
    pub fn y_var(&self) -> Option<CVar> {
        match self {
            Atom::T(y) | Atom::S(_, _, y) => Some(*y),
            Atom::R(_) => None,
        }
    }

    /// Checks sort constraints: `R` takes an `x`, `T` takes a `y`, `S` takes
    /// an `x` then a `y`.
    pub fn is_well_sorted(&self) -> bool {
        match self {
            Atom::R(v) => v.is_x(),
            Atom::T(v) => v.is_y(),
            Atom::S(_, x, y) => x.is_x() && y.is_y(),
        }
    }

    /// Applies a variable mapping.
    pub fn map_vars(&self, f: &mut impl FnMut(CVar) -> CVar) -> Atom {
        match self {
            Atom::R(v) => Atom::R(f(*v)),
            Atom::T(v) => Atom::T(f(*v)),
            Atom::S(i, x, y) => Atom::S(*i, f(*x), f(*y)),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::R(v) => write!(f, "R({v})"),
            Atom::T(v) => write!(f, "T({v})"),
            Atom::S(i, x, y) => write!(f, "S{i}({x},{y})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_checks() {
        assert!(Atom::R(CVar::X(0)).is_well_sorted());
        assert!(!Atom::R(CVar::Y(0)).is_well_sorted());
        assert!(Atom::T(CVar::Y(1)).is_well_sorted());
        assert!(!Atom::T(CVar::X(1)).is_well_sorted());
        assert!(Atom::S(0, CVar::X(0), CVar::Y(0)).is_well_sorted());
        assert!(!Atom::S(0, CVar::Y(0), CVar::X(0)).is_well_sorted());
    }

    #[test]
    fn preds_and_vars() {
        let a = Atom::S(3, CVar::X(0), CVar::Y(2));
        assert_eq!(a.pred(), Pred::S(3));
        assert_eq!(a.vars(), vec![CVar::X(0), CVar::Y(2)]);
        assert!(a.pred().is_binary());
        assert!(!Pred::R.is_binary());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Atom::S(1, CVar::X(0), CVar::Y(1)).to_string(), "S1(x0,y1)");
        assert_eq!(Atom::R(CVar::X(0)).to_string(), "R(x0)");
    }

    #[test]
    fn map_vars_substitutes() {
        let a = Atom::S(0, CVar::X(0), CVar::Y(0));
        let b = a.map_vars(&mut |v| match v {
            CVar::Y(0) => CVar::Y(5),
            other => other,
        });
        assert_eq!(b, Atom::S(0, CVar::X(0), CVar::Y(5)));
    }
}
