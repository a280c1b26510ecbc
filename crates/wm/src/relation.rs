//! Class-partitioned relations with secondary ordered indexes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;

use crate::{Atom, Value, Wme, WmeId};

/// One relation: all live WMEs of a single class, with a secondary
/// **ordered** index per attribute (`attribute → value → ids`), serving
/// equality *and* range selections.
///
/// The indexes serve several masters: equality and range selections by
/// API users, and the statistics the catalogue exposes for
/// lock-escalation decisions. Range selections are type-segregated by
/// the [`Value`] total order (all `Int`s sort before all `Float`s, so a
/// numeric range should stick to one numeric type).
#[derive(Clone, Debug, Default)]
pub struct Relation {
    tuples: BTreeMap<WmeId, Wme>,
    index: HashMap<Atom, BTreeMap<Value, HashSet<WmeId>>>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Returns `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Looks up a tuple by id.
    pub fn get(&self, id: WmeId) -> Option<&Wme> {
        self.tuples.get(&id)
    }

    /// Returns `true` if the tuple is live in this relation.
    pub fn contains(&self, id: WmeId) -> bool {
        self.tuples.contains_key(&id)
    }

    /// Iterates tuples in id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Wme> {
        self.tuples.values()
    }

    /// Equality selection via the secondary index: all tuples whose
    /// attribute `attr` equals `value` (strict equality; numeric coercion
    /// is the caller's concern).
    pub fn select_eq<'a>(&'a self, attr: &str, value: &Value) -> impl Iterator<Item = &'a Wme> {
        self.index
            .get(attr)
            .and_then(|by_val| by_val.get(value))
            .into_iter()
            .flatten()
            .filter_map(|id| self.tuples.get(id))
    }

    /// Number of tuples matching an equality selection, without
    /// materialising them.
    pub fn count_eq(&self, attr: &str, value: &Value) -> usize {
        self.index
            .get(attr)
            .and_then(|by_val| by_val.get(value))
            .map_or(0, HashSet::len)
    }

    /// Range selection via the ordered index: all tuples whose attribute
    /// `attr` lies in `[lo, hi]` bounds. `Bound::Unbounded` opens either
    /// end.
    ///
    /// ```
    /// # use dps_wm::{WorkingMemory, WmeData, Value};
    /// # use std::ops::Bound;
    /// let mut wm = WorkingMemory::new();
    /// for n in [1i64, 5, 9] { wm.insert(WmeData::new("t").with("n", n)); }
    /// let rel = wm.relation("t").unwrap();
    /// let hits: Vec<i64> = rel
    ///     .select_range("n", Bound::Included(&Value::Int(2)), Bound::Excluded(&Value::Int(9)))
    ///     .filter_map(|w| w.get("n").and_then(|v| v.as_i64()))
    ///     .collect();
    /// assert_eq!(hits, [5]);
    /// ```
    pub fn select_range<'a>(
        &'a self,
        attr: &str,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> impl Iterator<Item = &'a Wme> {
        self.index
            .get(attr)
            .into_iter()
            .flat_map(move |by_val| by_val.range::<Value, _>((lo, hi)))
            .flat_map(|(_, ids)| ids)
            .filter_map(|id| self.tuples.get(id))
    }

    /// Number of tuples in the range, without materialising them.
    pub fn count_range(&self, attr: &str, lo: Bound<&Value>, hi: Bound<&Value>) -> usize {
        self.index.get(attr).map_or(0, |by_val| {
            by_val
                .range::<Value, _>((lo, hi))
                .map(|(_, ids)| ids.len())
                .sum()
        })
    }

    /// The smallest and largest values of `attr` currently indexed.
    pub fn value_bounds(&self, attr: &str) -> Option<(&Value, &Value)> {
        let by_val = self.index.get(attr)?;
        let min = by_val.keys().next()?;
        let max = by_val.keys().next_back()?;
        Some((min, max))
    }

    /// Inserts a tuple. The caller (the store) guarantees id freshness.
    pub(crate) fn insert(&mut self, wme: Wme) {
        for (attr, value) in wme.data.attrs.iter() {
            self.index
                .entry(attr.clone())
                .or_default()
                .entry(value.clone())
                .or_default()
                .insert(wme.id);
        }
        self.tuples.insert(wme.id, wme);
    }

    /// Removes a tuple, returning it when present.
    pub(crate) fn remove(&mut self, id: WmeId) -> Option<Wme> {
        let wme = self.tuples.remove(&id)?;
        for (attr, value) in wme.data.attrs.iter() {
            if let Some(by_val) = self.index.get_mut(attr) {
                if let Some(ids) = by_val.get_mut(value) {
                    ids.remove(&id);
                    if ids.is_empty() {
                        by_val.remove(value);
                    }
                }
                if by_val.is_empty() {
                    self.index.remove(attr);
                }
            }
        }
        Some(wme)
    }

    /// Internal consistency check used by tests: every index entry points
    /// at a live tuple that actually carries that value, and every tuple
    /// attribute is indexed.
    #[doc(hidden)]
    pub fn check_index_invariants(&self) -> bool {
        for (attr, by_val) in &self.index {
            for (value, ids) in by_val {
                for id in ids {
                    match self.tuples.get(id) {
                        Some(w) if w.data.attrs.get(attr) == Some(value) => {}
                        _ => return false,
                    }
                }
            }
        }
        for wme in self.tuples.values() {
            for (attr, value) in wme.data.attrs.iter() {
                let ok = self
                    .index
                    .get(attr)
                    .and_then(|bv| bv.get(value))
                    .is_some_and(|ids| ids.contains(&wme.id));
                if !ok {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WmeData;

    fn wme(id: u64, ts: u64, pairs: &[(&str, Value)]) -> Wme {
        let mut data = WmeData::new("c");
        for (a, v) in pairs {
            data.set(*a, v.clone());
        }
        Wme {
            id: WmeId(id),
            data,
            timestamp: ts,
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut r = Relation::new();
        r.insert(wme(1, 1, &[("a", Value::Int(5))]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(WmeId(1)));
        let out = r.remove(WmeId(1)).unwrap();
        assert_eq!(out.id, WmeId(1));
        assert!(r.is_empty());
        assert!(r.check_index_invariants());
    }

    #[test]
    fn select_eq_uses_index() {
        let mut r = Relation::new();
        r.insert(wme(1, 1, &[("status", Value::from("open"))]));
        r.insert(wme(2, 2, &[("status", Value::from("open"))]));
        r.insert(wme(3, 3, &[("status", Value::from("closed"))]));
        let open: Vec<u64> = r
            .select_eq("status", &Value::from("open"))
            .map(|w| w.id.0)
            .collect();
        assert_eq!(open.len(), 2);
        assert!(open.contains(&1) && open.contains(&2));
        assert_eq!(r.count_eq("status", &Value::from("closed")), 1);
        assert_eq!(r.count_eq("status", &Value::from("missing")), 0);
        assert_eq!(r.count_eq("nope", &Value::from("open")), 0);
    }

    #[test]
    fn range_selection() {
        use std::ops::Bound::*;
        let mut r = Relation::new();
        for (id, v) in [(1u64, 2i64), (2, 5), (3, 5), (4, 9)] {
            r.insert(wme(id, id, &[("n", Value::Int(v))]));
        }
        let ids = |lo, hi| -> Vec<u64> {
            let mut v: Vec<u64> = r.select_range("n", lo, hi).map(|w| w.id.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            ids(Included(&Value::Int(3)), Included(&Value::Int(9))),
            [2, 3, 4]
        );
        assert_eq!(ids(Excluded(&Value::Int(5)), Unbounded), [4]);
        assert_eq!(ids(Unbounded, Excluded(&Value::Int(5))), [1]);
        assert_eq!(
            r.count_range("n", Included(&Value::Int(5)), Included(&Value::Int(5))),
            2
        );
        assert_eq!(r.count_range("zzz", Unbounded, Unbounded), 0);
        assert_eq!(r.value_bounds("n"), Some((&Value::Int(2), &Value::Int(9))));
        assert_eq!(r.value_bounds("zzz"), None);
    }

    #[test]
    fn range_is_type_segregated() {
        use std::ops::Bound::*;
        let mut r = Relation::new();
        r.insert(wme(1, 1, &[("v", Value::Int(5))]));
        r.insert(wme(2, 2, &[("v", Value::from("sym"))]));
        // An integer range never returns symbols.
        assert_eq!(
            r.select_range("v", Included(&Value::Int(0)), Included(&Value::Int(10)))
                .count(),
            1
        );
    }

    #[test]
    fn remove_cleans_empty_index_buckets() {
        let mut r = Relation::new();
        r.insert(wme(1, 1, &[("a", Value::Int(1)), ("b", Value::Int(2))]));
        r.remove(WmeId(1));
        assert!(r.index.is_empty());
        assert!(r.check_index_invariants());
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut r = Relation::new();
        r.insert(wme(5, 1, &[]));
        r.insert(wme(2, 2, &[]));
        r.insert(wme(9, 3, &[]));
        let ids: Vec<u64> = r.iter().map(|w| w.id.0).collect();
        assert_eq!(ids, [2, 5, 9]);
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut r = Relation::new();
        assert!(r.remove(WmeId(7)).is_none());
    }

    #[test]
    fn invariants_hold_under_mixed_ops() {
        let mut r = Relation::new();
        for i in 0..50u64 {
            r.insert(wme(i, i, &[("k", Value::Int((i % 5) as i64))]));
        }
        for i in (0..50u64).step_by(3) {
            r.remove(WmeId(i));
        }
        assert!(r.check_index_invariants());
        assert_eq!(
            r.count_eq("k", &Value::Int(0)),
            r.select_eq("k", &Value::Int(0)).count()
        );
    }
}
