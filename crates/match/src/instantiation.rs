//! Rule instantiations — the members of the conflict set.

use std::fmt;
use std::sync::Arc;

use dps_rules::{BindingSite, Bindings, RuleId};
use dps_wm::{Timestamp, Wme, WmeId};

/// A condition-indexed WME chain: entry `c` is the WME matched at
/// condition `c`, `None` at a negated condition. Sharing one costs a
/// reference-count bump.
pub type Chain = Arc<[Option<Arc<Wme>>]>;

/// Identity of an instantiation: the rule plus the exact WMEs (with their
/// recency stamps) matched by its positive condition elements.
///
/// Timestamps participate in identity because an OPS5 `modify` re-inserts
/// a WME under the same id with a fresh stamp — the old instantiation is
/// gone and a new one (same ids, newer stamp) may appear, and
/// *refraction* must treat them as distinct.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstKey {
    /// The matched rule.
    pub rule: RuleId,
    /// `(id, timestamp)` of each positive-CE match, in CE order.
    pub wmes: Vec<(WmeId, Timestamp)>,
}

/// A satisfied rule instantiation: one concrete way a rule's LHS matches
/// working memory.
///
/// A view: the matched WMEs are the positive entries of a shared
/// [`Chain`], and the bindings are read from it at the rule's
/// [`BindingSite`]s on demand. A clone costs two reference-count bumps
/// and keeps its WMEs and bindings after working memory moves on.
#[derive(Clone, Debug, PartialEq)]
pub struct Instantiation {
    /// The matched rule.
    pub rule: RuleId,
    /// Rule salience (copied from the rule for cheap strategy access).
    pub salience: i32,
    chain: Chain,
    sites: Arc<[BindingSite]>,
}

impl Instantiation {
    /// An instantiation of `rule` over `chain`, binding its variables at
    /// `sites` (the rule's [`dps_rules::Rule::binding_sites`]).
    pub fn new(rule: RuleId, salience: i32, chain: Chain, sites: Arc<[BindingSite]>) -> Self {
        Instantiation {
            rule,
            salience,
            chain,
            sites,
        }
    }

    /// The WMEs matched by the positive CEs, in CE order.
    pub fn wmes(&self) -> impl Iterator<Item = &Wme> + '_ {
        self.chain.iter().flatten().map(|w| &**w)
    }

    /// [`wmes`](Instantiation::wmes) as an owned slice, the form
    /// [`dps_rules::instantiate_actions`] takes.
    pub fn matched(&self) -> Vec<Wme> {
        self.wmes().cloned().collect()
    }

    /// Variable bindings established by the match.
    pub fn bindings(&self) -> Bindings {
        self.sites
            .iter()
            .filter_map(|s| {
                let w = self.chain.get(s.cond)?.as_ref()?;
                Some((s.var.clone(), w.get_or_nil(s.attr.as_str())))
            })
            .collect()
    }

    /// The identity key.
    pub fn key(&self) -> InstKey {
        InstKey {
            rule: self.rule,
            wmes: self.wmes().map(|w| (w.id, w.timestamp)).collect(),
        }
    }

    /// Recency vector: matched-WME timestamps sorted descending — the
    /// comparison key of OPS5's LEX strategy.
    pub fn recency(&self) -> Vec<Timestamp> {
        let mut ts: Vec<Timestamp> = self.wmes().map(|w| w.timestamp).collect();
        ts.sort_unstable_by(|a, b| b.cmp(a));
        ts
    }

    /// Timestamp of the first CE's match — MEA's dominant criterion.
    pub fn first_ce_recency(&self) -> Timestamp {
        self.wmes().next().map_or(0, |w| w.timestamp)
    }
}

impl fmt::Display for Instantiation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.rule)?;
        for (i, w) in self.wmes().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", w.id)?;
        }
        write!(f, "]{}", self.bindings())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::RuleSet;
    use dps_wm::{Value, WmeData};

    fn wme(id: u64, ts: u64) -> Wme {
        Wme {
            id: WmeId(id),
            data: WmeData::new("c").with("n", id as i64),
            timestamp: ts,
        }
    }

    fn inst(rule: u32, wmes: Vec<Wme>) -> Instantiation {
        let chain = wmes.into_iter().map(|w| Some(Arc::new(w))).collect();
        Instantiation::new(RuleId(rule), 0, chain, Arc::new([]))
    }

    #[test]
    fn key_includes_timestamps() {
        let a = inst(1, vec![wme(1, 5)]);
        let b = inst(1, vec![wme(1, 9)]); // same wme id, fresher stamp
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn recency_sorts_descending() {
        let i = inst(0, vec![wme(1, 3), wme(2, 9), wme(3, 5)]);
        assert_eq!(i.recency(), vec![9, 5, 3]);
        assert_eq!(i.first_ce_recency(), 3);
    }

    #[test]
    fn bindings_read_sites_and_negated_entries_are_skipped() {
        let rules = RuleSet::parse("(p r (c ^n <x>) -(hold) (c ^n <y>) --> (remove 1))").unwrap();
        let rule = rules.get(RuleId(0)).unwrap();
        let chain: Chain = [Some(Arc::new(wme(1, 1))), None, Some(Arc::new(wme(2, 2)))].into();
        let i = Instantiation::new(RuleId(0), 0, chain, rule.binding_sites().into());
        assert_eq!(i.wmes().map(|w| w.id.0).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(i.bindings().get("x"), Some(&Value::Int(1)));
        assert_eq!(i.bindings().get("y"), Some(&Value::Int(2)));
    }

    #[test]
    fn display_is_compact() {
        let i = inst(2, vec![wme(1, 1), wme(2, 2)]);
        assert_eq!(i.to_string(), "r2[w1,w2]{}");
    }
}
