//! The conflict set: all currently satisfied instantiations.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{InstKey, Instantiation};

/// The set of active instantiations (the paper's `P^A`): a map from
/// identity key to instantiation, supporting insert / remove by key and
/// deterministic (key-ordered) enumeration for reproducible selection
/// and testing. Purging by WME is the matcher's job: Rete retracts the
/// instantiations of deleted tokens, TREAT keeps its own WME index.
///
/// Each instantiation's [`InstKey`] is built once and shared as an
/// `Arc` with the matcher that retracts it; lookups take a plain
/// `&InstKey` (through `Arc: Borrow`), and
/// [`iter_keyed`](ConflictSet::iter_keyed) hands the stored key to
/// scanners so they need not rebuild it.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    insts: BTreeMap<Arc<InstKey>, Instantiation>,
}

impl ConflictSet {
    /// Creates an empty conflict set.
    pub fn new() -> Self {
        ConflictSet::default()
    }

    /// Number of active instantiations.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` when no rule is satisfied — the paper's termination
    /// condition ("If the conflict set is empty ... the system halts").
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Inserts an instantiation; returns `false` if it was already
    /// present (idempotent).
    pub fn insert(&mut self, inst: Instantiation) -> bool {
        self.insert_keyed(Arc::new(inst.key()), inst)
    }

    /// [`insert`](ConflictSet::insert) under a key the caller already
    /// built (and keeps a handle to); `key` must equal `inst.key()`.
    pub(crate) fn insert_keyed(&mut self, key: Arc<InstKey>, inst: Instantiation) -> bool {
        debug_assert_eq!(*key, inst.key());
        match self.insts.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(inst);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Removes by key; returns the instantiation when present.
    pub fn remove(&mut self, key: &InstKey) -> Option<Instantiation> {
        self.insts.remove(key)
    }

    /// `true` when the key is present.
    pub fn contains(&self, key: &InstKey) -> bool {
        self.insts.contains_key(key)
    }

    /// Looks up by key.
    pub fn get(&self, key: &InstKey) -> Option<&Instantiation> {
        self.insts.get(key)
    }

    /// Iterates instantiations in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.insts.values()
    }

    /// Iterates `(key, instantiation)` pairs in key order, handing out
    /// the stored key instead of rebuilding it per entry.
    pub fn iter_keyed(&self) -> impl Iterator<Item = (&InstKey, &Instantiation)> {
        self.insts.iter().map(|(k, i)| (&**k, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::RuleId;
    use dps_wm::{Wme, WmeData, WmeId};

    fn wme(id: u64, ts: u64) -> Wme {
        Wme {
            id: WmeId(id),
            data: WmeData::new("c"),
            timestamp: ts,
        }
    }

    fn inst(rule: u32, ids: &[(u64, u64)]) -> Instantiation {
        let chain = ids
            .iter()
            .map(|&(i, t)| Some(Arc::new(wme(i, t))))
            .collect();
        Instantiation::new(RuleId(rule), 0, chain, Arc::new([]))
    }

    #[test]
    fn insert_is_idempotent() {
        let mut cs = ConflictSet::new();
        assert!(cs.insert(inst(0, &[(1, 1)])));
        assert!(!cs.insert(inst(0, &[(1, 1)])));
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn remove_by_key() {
        let mut cs = ConflictSet::new();
        let i = inst(0, &[(1, 1)]);
        let k = i.key();
        cs.insert(i);
        assert!(cs.contains(&k));
        assert!(cs.remove(&k).is_some());
        assert!(cs.is_empty());
        assert!(cs.remove(&k).is_none());
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(1, &[(5, 5)]));
        cs.insert(inst(0, &[(9, 9)]));
        cs.insert(inst(0, &[(2, 2)]));
        let order: Vec<(u32, u64)> = cs
            .iter()
            .map(|i| (i.rule.0, i.wmes().next().unwrap().id.0))
            .collect();
        assert_eq!(order, [(0, 2), (0, 9), (1, 5)]);
    }

    #[test]
    fn iter_keyed_pairs_each_instantiation_with_its_key() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(1, &[(5, 5)]));
        cs.insert(inst(0, &[(2, 2), (3, 3)]));
        for (k, i) in cs.iter_keyed() {
            assert_eq!(*k, i.key());
        }
        assert_eq!(cs.iter_keyed().count(), 2);
    }
}
