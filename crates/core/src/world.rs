//! The *world* — the database half of every engine: working memory plus
//! the incremental matcher that mirrors it.
//!
//! All three engines (single-thread, static-parallel, dynamic-parallel)
//! previously duplicated the same commit skeleton — apply the delta to
//! WM, drive the matcher with the resulting changes, refract the fired
//! instantiation, append to the trace. That skeleton lives here once, as
//! [`World::commit`].
//!
//! The WM and the matcher are deliberately **one** unit: the matcher's
//! internal state is a function of the change stream, so the two must
//! only ever be observed in lock-step. In the dynamic engine the pair
//! sits behind a single mutex (`Mutex<World>`) — one of the three
//! independently-locked pieces the former monolithic `Shared` struct was
//! split into.

use std::collections::HashSet;

use dps_match::{InstKey, Matcher, Rete};
use dps_wm::WorkingMemory;

use crate::{Firing, Trace};

/// Working memory plus the matcher that mirrors it.
#[derive(Clone, Debug)]
pub(crate) struct World<M: Matcher = Rete> {
    pub wm: WorkingMemory,
    pub matcher: M,
}

impl<M: Matcher> World<M> {
    /// The commit-time skeleton shared by every engine: atomically (from
    /// the caller's locking point of view) apply the firing's delta to
    /// WM, feed the changes to the matcher, refract the instantiation,
    /// and record the firing in `trace`.
    ///
    /// `refracted` and `trace` are passed in rather than owned so the
    /// dynamic engine can borrow them from *different* mutex guards
    /// (ledger and trace) while holding the world lock.
    pub fn commit(&mut self, refracted: &mut HashSet<InstKey>, trace: &mut Trace, firing: Firing) {
        let changes = self
            .wm
            .apply(&firing.delta)
            .expect("committed firing only touches live WMEs");
        self.matcher.apply(&changes);
        refracted.insert(firing.key.clone());
        trace.firings.push(firing);
    }

    /// Bounds the refraction set: once it exceeds `threshold`, drop keys
    /// no longer present in the conflict set (they can never match again
    /// — timestamps are fresh on re-assertion).
    pub fn gc_refracted(&self, refracted: &mut HashSet<InstKey>, threshold: usize) {
        if refracted.len() > threshold {
            let cs = self.matcher.conflict_set();
            refracted.retain(|k| cs.contains(k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::{instantiate_actions, RuleSet};
    use dps_wm::{Value, WmeData};

    #[test]
    fn commit_applies_delta_and_refracts() {
        let rules = RuleSet::parse("(p bump (c ^n <n>) --> (modify 1 ^n (+ <n> 1)))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("c").with("n", 0i64));
        let matcher = Rete::new(&rules, &wm);
        let mut world = World { wm, matcher };
        let inst = world.matcher.conflict_set().iter().next().unwrap().clone();
        let rule = rules.get(inst.rule).unwrap();
        let (delta, halt) = instantiate_actions(rule, &inst.bindings(), &inst.matched()).unwrap();
        let key = inst.key();
        let mut refracted = HashSet::new();
        let mut trace = Trace::default();
        world.commit(
            &mut refracted,
            &mut trace,
            Firing {
                rule: inst.rule,
                rule_name: rule.name.clone(),
                key: key.clone(),
                delta,
                halt,
                external: false,
            },
        );
        assert!(refracted.contains(&key));
        assert_eq!(trace.len(), 1);
        let c = world.wm.class_iter("c").next().unwrap();
        assert_eq!(c.get("n"), Some(&Value::Int(1)));
        // The matcher tracked the modify: a fresh instantiation exists
        // and the old key is gone from the conflict set.
        assert!(!world.matcher.conflict_set().contains(&key));
        assert_eq!(world.matcher.conflict_set().len(), 1);
    }

    #[test]
    fn gc_drops_only_dead_keys() {
        let rules = RuleSet::parse("(p keep (c) --> (make log))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("c"));
        let matcher = Rete::new(&rules, &wm);
        let world = World { wm, matcher };
        let live = world.matcher.conflict_set().iter().next().unwrap().key();
        let dead = InstKey {
            rule: live.rule,
            wmes: vec![],
        };
        let mut refracted: HashSet<InstKey> = [live.clone(), dead.clone()].into();
        world.gc_refracted(&mut refracted, 1);
        assert!(refracted.contains(&live), "live key survives GC");
        assert!(!refracted.contains(&dead), "dead key collected");
        // Below threshold: untouched.
        let mut small: HashSet<InstKey> = [dead].into();
        world.gc_refracted(&mut small, 10);
        assert_eq!(small.len(), 1);
    }
}
