//! Variable bindings accumulated while matching a rule's LHS.

use std::collections::BTreeMap;
use std::fmt;

use dps_wm::Value;

use crate::VarName;

/// A set of variable → value bindings.
///
/// Bindings grow monotonically along a join chain; the matcher clones them
/// when branching. A `BTreeMap` keeps iteration and `Display` output
/// deterministic, which matters for reproducible conflict-set ordering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bindings {
    map: BTreeMap<VarName, Value>,
}

impl Bindings {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Looks up a variable.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.map.get(var)
    }

    /// `true` if the variable is bound.
    pub fn is_bound(&self, var: &str) -> bool {
        self.map.contains_key(var)
    }

    /// Attempts to unify `var` with `value`: binds when unbound, succeeds
    /// when already bound to a loosely equal value, fails otherwise.
    pub fn unify(&mut self, var: &VarName, value: &Value) -> bool {
        match self.map.get(var) {
            None => {
                self.map.insert(var.clone(), value.clone());
                true
            }
            Some(existing) => existing.loose_eq(value),
        }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates bindings in variable-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&VarName, &Value)> {
        self.map.iter()
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "<{k}>={v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(VarName, Value)> for Bindings {
    fn from_iter<T: IntoIterator<Item = (VarName, Value)>>(iter: T) -> Self {
        Bindings {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_wm::Atom;

    #[test]
    fn unify_binds_then_tests() {
        let mut b = Bindings::new();
        let x = Atom::from("x");
        assert!(b.unify(&x, &Value::Int(3)));
        assert!(b.unify(&x, &Value::Int(3)));
        assert!(b.unify(&x, &Value::Float(3.0)), "loose equality applies");
        assert!(!b.unify(&x, &Value::Int(4)));
        assert_eq!(b.get("x"), Some(&Value::Int(3)));
    }

    #[test]
    fn clone_branches_independently() {
        let mut a = Bindings::new();
        a.unify(&Atom::from("x"), &Value::Int(1));
        let mut b = a.clone();
        b.unify(&Atom::from("y"), &Value::Int(2));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn display_is_sorted() {
        let b: Bindings = [
            (Atom::from("z"), Value::Int(1)),
            (Atom::from("a"), Value::Int(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(b.to_string(), "{<a>=2, <z>=1}");
    }

    #[test]
    fn emptiness() {
        let b = Bindings::new();
        assert!(b.is_empty());
        assert!(!b.is_bound("x"));
    }
}
