//! The conflict set: all currently satisfied instantiations.

use std::collections::BTreeMap;
use std::sync::Arc;

use dps_rules::RuleId;
use dps_wm::WmeId;

use crate::idhash::{IdMap, IdSet};
use crate::{InstKey, Instantiation};

/// The set of active instantiations (the paper's `P^A`), with indexes for
/// the operations matchers and engines perform constantly:
///
/// * insert / remove by identity key;
/// * drop everything mentioning a WME (on its removal);
/// * enumerate deterministically (keys are ordered) for reproducible
///   selection and testing.
///
/// Each instantiation's [`InstKey`] is built once and shared by every
/// index as an `Arc`; lookups take a plain `&InstKey` (through
/// `Arc: Borrow`), and [`iter_keyed`](ConflictSet::iter_keyed) hands the
/// stored key to scanners so they need not rebuild it.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    insts: BTreeMap<Arc<InstKey>, Instantiation>,
    by_wme: IdMap<WmeId, IdSet<Arc<InstKey>>>,
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
        if self.insts.contains_key(&*key) {
            return false;
        }
        for w in &inst.wmes {
            self.by_wme
                .entry(w.id)
                .or_default()
                .insert(Arc::clone(&key));
        }
        self.insts.insert(key, inst);
        true
    }

    /// Removes by key; returns the instantiation when present.
    pub fn remove(&mut self, key: &InstKey) -> Option<Instantiation> {
        let inst = self.insts.remove(key)?;
        for w in &inst.wmes {
            if let Some(set) = self.by_wme.get_mut(&w.id) {
                set.remove(key);
                if set.is_empty() {
                    self.by_wme.remove(&w.id);
                }
            }
        }
        Some(inst)
    }

    /// Removes every instantiation mentioning `id`; returns how many left.
    ///
    /// Takes the whole `by_wme` index set out of the map in one move;
    /// `remove` tolerates the already-removed `by_wme` entry
    /// (`get_mut` → `None`).
    pub fn remove_mentioning(&mut self, id: WmeId) -> usize {
        let keys = self.by_wme.remove(&id).unwrap_or_default();
        let n = keys.len();
        for k in &keys {
            self.remove(k);
        }
        n
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

    /// Instantiations of one rule, in key order.
    pub fn of_rule(&self, rule: RuleId) -> impl Iterator<Item = &Instantiation> + '_ {
        self.insts.values().filter(move |i| i.rule == rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::Bindings;
    use dps_wm::{Wme, WmeData};

    fn wme(id: u64, ts: u64) -> Wme {
        Wme {
            id: WmeId(id),
            data: WmeData::new("c"),
            timestamp: ts,
        }
    }

    fn inst(rule: u32, ids: &[(u64, u64)]) -> Instantiation {
        Instantiation {
            rule: RuleId(rule),
            wmes: ids.iter().map(|&(i, t)| wme(i, t)).collect(),
            bindings: Bindings::new(),
            salience: 0,
        }
    }

    #[test]
    fn insert_is_idempotent() {
        let mut cs = ConflictSet::new();
        assert!(cs.insert(inst(0, &[(1, 1)])));
        assert!(!cs.insert(inst(0, &[(1, 1)])));
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn remove_mentioning_drops_all_users() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[(1, 1), (2, 2)]));
        cs.insert(inst(1, &[(2, 2)]));
        cs.insert(inst(2, &[(3, 3)]));
        assert_eq!(cs.remove_mentioning(WmeId(2)), 2);
        assert_eq!(cs.len(), 1);
        assert!(cs.iter().next().unwrap().mentions(WmeId(3)));
    }

    #[test]
    fn indexes_stay_consistent_after_removals() {
        let mut cs = ConflictSet::new();
        let i = inst(0, &[(1, 1)]);
        let k = i.key();
        cs.insert(i);
        cs.remove(&k);
        assert!(cs.is_empty());
        assert_eq!(cs.remove_mentioning(WmeId(1)), 0);
        assert!(cs.remove(&k).is_none());
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(1, &[(5, 5)]));
        cs.insert(inst(0, &[(9, 9)]));
        cs.insert(inst(0, &[(2, 2)]));
        let order: Vec<(u32, u64)> = cs.iter().map(|i| (i.rule.0, i.wmes[0].id.0)).collect();
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

    #[test]
    fn of_rule_filters() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[(1, 1)]));
        cs.insert(inst(1, &[(2, 2)]));
        assert_eq!(cs.of_rule(RuleId(1)).count(), 1);
    }
}
