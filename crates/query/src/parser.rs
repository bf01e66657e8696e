//! A text format for bipartite ∀CNF queries, round-tripping with `Display`.
//!
//! Grammar (whitespace-insensitive; all variables universally quantified):
//!
//! ```text
//! query  := clause ( '&' clause )*          -- conjunction of clauses
//! clause := '[' disj ']' | disj             -- brackets optional
//! disj   := atom ( ('v' | '|') atom )*      -- disjunction of atoms
//! atom   := 'R(' xvar ')'
//!         | 'T(' yvar ')'
//!         | 'S' INT '(' xvar ',' yvar ')'
//! xvar   := 'x' INT        yvar := 'y' INT
//! ```
//!
//! Examples:
//!
//! ```text
//! [R(x0) v S0(x0,y0)] & [S0(x0,y0) v T(y0)]                 -- H1
//! [S0(x0,y0) v S1(x0,y1)] & [S0(x0,y0) v S2(x0,y0)]         -- Type II left
//! ```

use crate::atom::{Atom, CVar};
use crate::clause::Clause;
use crate::query::BipartiteQuery;
use std::fmt;

/// A parse failure with position and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub position: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected '{}'", c as char))
        }
    }

    fn try_eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn integer(&mut self) -> Result<u32, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return self.error("expected a number");
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .unwrap()
            .parse::<u32>()
            .map_err(|_| ParseError {
                position: start,
                message: "number too large".into(),
            })
    }

    fn variable(&mut self, sort: u8) -> Result<CVar, ParseError> {
        match self.peek() {
            Some(c) if c == sort => {
                self.pos += 1;
                let idx = self.integer()?;
                if idx > u8::MAX as u32 {
                    return self.error("variable index too large");
                }
                Ok(if sort == b'x' {
                    CVar::X(idx as u8)
                } else {
                    CVar::Y(idx as u8)
                })
            }
            _ => self.error(format!("expected a '{}' variable", sort as char)),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        match self.peek() {
            Some(b'R') => {
                self.pos += 1;
                self.eat(b'(')?;
                let v = self.variable(b'x')?;
                self.eat(b')')?;
                Ok(Atom::R(v))
            }
            Some(b'T') => {
                self.pos += 1;
                self.eat(b'(')?;
                let v = self.variable(b'y')?;
                self.eat(b')')?;
                Ok(Atom::T(v))
            }
            Some(b'S') => {
                self.pos += 1;
                let idx = self.integer()?;
                self.eat(b'(')?;
                let x = self.variable(b'x')?;
                self.eat(b',')?;
                let y = self.variable(b'y')?;
                self.eat(b')')?;
                Ok(Atom::S(idx, x, y))
            }
            _ => self.error("expected an atom (R, T, or S<i>)"),
        }
    }

    fn clause(&mut self) -> Result<Clause, ParseError> {
        let bracketed = self.try_eat(b'[');
        // Room for the usual clause up front, so short clauses allocate once.
        let mut atoms = Vec::with_capacity(4);
        atoms.push(self.atom()?);
        loop {
            match self.peek() {
                Some(b'v') => {
                    self.pos += 1;
                    atoms.push(self.atom()?);
                }
                Some(b'|') => {
                    self.pos += 1;
                    atoms.push(self.atom()?);
                }
                _ => break,
            }
        }
        if bracketed {
            self.eat(b']')?;
        }
        Ok(Clause::new(atoms))
    }

    fn query(&mut self) -> Result<BipartiteQuery, ParseError> {
        let mut clauses = Vec::with_capacity(4);
        clauses.push(self.clause()?);
        while self.try_eat(b'&') {
            clauses.push(self.clause()?);
        }
        self.skip_ws();
        if self.pos != self.input.len() {
            return self.error("trailing input");
        }
        Ok(BipartiteQuery::new(clauses))
    }
}

/// Parses a query from the textual format (see module docs). The result is
/// minimized and redundancy-free, like any [`BipartiteQuery`].
pub fn parse_query(input: &str) -> Result<BipartiteQuery, ParseError> {
    Parser::new(input).query()
}

/// Parses a single universally-quantified clause.
pub fn parse_clause(input: &str) -> Result<Clause, ParseError> {
    let mut p = Parser::new(input);
    let c = p.clause()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return p.error("trailing input");
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::catalog;

    #[test]
    fn parse_h1() {
        let q = parse_query("[R(x0) v S0(x0,y0)] & [S0(x0,y0) v T(y0)]").unwrap();
        assert_eq!(q, catalog::h1());
    }

    #[test]
    fn parse_without_brackets_and_with_pipes() {
        let q = parse_query("R(x0) | S0(x0,y0) & S0(x0,y0) | T(y0)").unwrap();
        assert_eq!(q, catalog::h1());
    }

    #[test]
    fn parse_type_ii_clause() {
        let q = parse_query("[S0(x0,y0) v S1(x0,y1)] & [S2(x0,y0) v T(y0)]").unwrap();
        assert_eq!(q.left_clauses().len(), 1);
        assert_eq!(q.right_clauses().len(), 1);
    }

    #[test]
    fn display_roundtrip_catalog() {
        for (name, q) in catalog::unsafe_catalog()
            .into_iter()
            .chain(catalog::safe_catalog())
        {
            // Strip the outer query display into the parser format.
            let text = q.to_string();
            let parsed = parse_query(&text)
                .unwrap_or_else(|e| panic!("{name}: failed to parse back {text:?}: {e}"));
            assert_eq!(parsed, q, "{name}");
        }
    }

    #[test]
    fn whitespace_insensitive() {
        let a = parse_query("R(x0)vS0(x0,y0)&S0(x0,y0)vT(y0)").unwrap();
        let b = parse_query("  R(x0)  v  S0(x0,y0)\n&\tS0(x0,y0) v T(y0) ").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, catalog::h1());
    }

    #[test]
    fn errors_are_positioned() {
        let e = parse_query("R(x0) v Q(x0)").unwrap_err();
        assert!(e.position >= 8, "{e}");
        assert!(e.message.contains("atom"));
        let e2 = parse_query("R(y0)").unwrap_err();
        assert!(e2.message.contains("'x' variable"));
        let e3 = parse_query("[R(x0)").unwrap_err();
        assert!(e3.message.contains("']'"));
        let e4 = parse_query("R(x0) extra").unwrap_err();
        assert!(e4.message.contains("trailing"));
    }

    #[test]
    fn parse_clause_standalone() {
        let c = parse_clause("S0(x0,y0) v S1(x0,y0)").unwrap();
        assert_eq!(c, Clause::middle([0, 1]));
    }

    #[test]
    fn parser_minimizes_like_constructor() {
        // Redundant clause dropped, subsumed subclause minimized.
        let q = parse_query("[S0(x0,y0)] & [S0(x0,y0) v S1(x0,y0)]").unwrap();
        assert_eq!(q.clauses().len(), 1);
    }

    #[test]
    fn large_symbol_indices() {
        let q = parse_query("S42(x0,y0) v S7(x0,y0)").unwrap();
        assert_eq!(q.binary_symbols(), [7u32, 42].into_iter().collect());
    }
}
