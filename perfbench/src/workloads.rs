//! Generated inputs of the three batch workloads: a rule program, the
//! initial tuples in a seeded insertion order, and the checks a
//! correct run's final working memory passes.

use dps_wm::rng::SmallRng;
use dps_wm::{Value, WmeData, WorkingMemory};

/// A batch workload's generated inputs.
pub struct Spec {
    /// Rule program source.
    pub rules: String,
    /// Initial tuples, in insertion order.
    pub tuples: Vec<WmeData>,
    /// Rule commits a correct run makes.
    pub commits: usize,
    /// Final-state check.
    check: Check,
}

enum Check {
    /// Every `out-g` relation holds `pairs` tuples.
    Fanout { groups: usize, pairs: usize },
    /// `shipped` orders shipped, `backordered` backordered, widget
    /// stock drained.
    Orders { shipped: usize, backordered: usize },
    /// Every `watch` and `feed` counter reached 0.
    Counters,
}

impl Spec {
    /// `match_heavy`: `groups` rule families, each joining one
    /// `cfg-g` tuple with `pairs` `item-g` tuples and firing a
    /// make-only RHS, so `groups × pairs` refracted instantiations stay
    /// live in the conflict set for the whole run.
    pub fn wide_conflict_set(groups: usize, pairs: usize, seed: u64) -> Spec {
        let mut rules = String::new();
        let mut tuples = Vec::new();
        for g in 0..groups {
            rules.push_str(&format!(
                "(p fan-{g} (cfg-{g} ^on true) (item-{g} ^id <i>) --> (make out-{g} ^id <i>))\n"
            ));
            tuples.push(WmeData::new(format!("cfg-{g}")).with("on", true));
            for i in 0..pairs {
                tuples.push(WmeData::new(format!("item-{g}")).with("id", i as i64));
            }
        }
        Spec::shuffled(
            rules,
            tuples,
            groups * pairs,
            Check::Fanout { groups, pairs },
            seed,
        )
    }

    /// `order_fulfillment`: `fulfillable` orders flow through reserve,
    /// pick, pack and ship (4 commits each), all reserving from one hot
    /// `stock` tuple; `backordered` orders go to backorder plus an audit
    /// (2 commits each). Salience, negation and arithmetic.
    pub fn hot_join_orders(fulfillable: usize, backordered: usize, seed: u64) -> Spec {
        let rules = r#"
            (p reserve-rush (salience 10)
               (order ^state received ^priority << rush urgent >> ^item <i> ^qty <q>)
               (stock ^item <i> ^on-hand >= <q> ^on-hand <s>)
               --> (modify 1 ^state reserved) (modify 2 ^on-hand (- <s> <q>)))
            (p reserve
               (order ^state received ^item <i> ^qty <q>)
               (stock ^item <i> ^on-hand >= <q> ^on-hand <s>)
               --> (modify 1 ^state reserved) (modify 2 ^on-hand (- <s> <q>)))
            (p backorder
               (order ^state received ^id <id> ^item <i> ^qty <q>)
               (stock ^item <i> ^on-hand < <q>)
               --> (modify 1 ^state backordered))
            (p audit-backorder
               (order ^state backordered ^id <id>) -(audit ^order <id>)
               --> (make audit ^order <id>))
            (p pick (order ^state reserved) --> (modify 1 ^state picked))
            (p pack
               (order ^state picked ^id <id> ^qty <q>)
               --> (modify 1 ^state packed) (make package ^order <id> ^weight (* <q> 2)))
            (p ship
               (order ^state packed ^id <id>) (package ^order <id>)
               --> (modify 1 ^state shipped))
        "#;
        let demand: i64 = (1..=fulfillable as i64).sum();
        let mut tuples = vec![
            WmeData::new("stock")
                .with("item", "widget")
                .with("on-hand", demand),
            WmeData::new("stock")
                .with("item", "unobtainium")
                .with("on-hand", 0i64),
        ];
        for i in 0..fulfillable {
            tuples.push(order(i as i64, "widget", i as i64 + 1, i % 3 == 0));
        }
        for i in 0..backordered {
            tuples.push(order((fulfillable + i) as i64, "unobtainium", 1, false));
        }
        let commits = 4 * fulfillable + 2 * backordered;
        let check = Check::Orders {
            shipped: fulfillable,
            backordered,
        };
        Spec::shuffled(rules.to_string(), tuples, commits, check, seed)
    }

    /// `false_conflict_stream`: `guards` guards count down `g_steps`
    /// under a negated `alarm` CE (a relation-level `Rc`), while
    /// `producers` count down `p_steps`, each step making an alarm no
    /// guard watches — tiny commits, relation-lock convoys and dooms.
    pub fn guarded_counters(
        guards: usize,
        g_steps: i64,
        producers: usize,
        p_steps: i64,
        seed: u64,
    ) -> Spec {
        let rules = "(p guard (watch ^id <w> ^n { > 0 <n> }) -(alarm ^zone <w>)
                       --> (modify 1 ^n (- <n> 1)))
                     (p produce (feed ^id <f> ^n { > 0 <n> })
                       --> (modify 1 ^n (- <n> 1)) (make alarm ^zone 999 ^src <f> ^step <n>))";
        let mut tuples = Vec::new();
        for w in 0..guards {
            tuples.push(
                WmeData::new("watch")
                    .with("id", w as i64)
                    .with("n", g_steps),
            );
        }
        for f in 0..producers {
            tuples.push(WmeData::new("feed").with("id", f as i64).with("n", p_steps));
        }
        let commits = guards * g_steps as usize + producers * p_steps as usize;
        Spec::shuffled(rules.to_string(), tuples, commits, Check::Counters, seed)
    }

    fn shuffled(
        rules: String,
        mut tuples: Vec<WmeData>,
        commits: usize,
        check: Check,
        seed: u64,
    ) -> Spec {
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..tuples.len()).rev() {
            tuples.swap(i, rng.index(i + 1));
        }
        Spec {
            rules,
            tuples,
            commits,
            check,
        }
    }

    /// The initial working memory.
    pub fn initial_wm(&self) -> WorkingMemory {
        let mut wm = WorkingMemory::new();
        for t in &self.tuples {
            wm.insert(t.clone());
        }
        wm
    }

    /// Checks a run's final working memory.
    pub fn check(&self, wm: &WorkingMemory) -> Result<(), String> {
        match self.check {
            Check::Fanout { groups, pairs } => {
                for g in 0..groups {
                    let n = wm.class_iter(&format!("out-{g}")).count();
                    if n != pairs {
                        return Err(format!("out-{g} holds {n} tuples, expected {pairs}"));
                    }
                }
            }
            Check::Orders {
                shipped,
                backordered,
            } => {
                let in_state = |s: &str| {
                    wm.class_iter("order")
                        .filter(|w| w.get("state") == Some(&Value::from(s)))
                        .count()
                };
                let (got_shipped, got_back) = (in_state("shipped"), in_state("backordered"));
                if (got_shipped, got_back) != (shipped, backordered) {
                    return Err(format!(
                        "{got_shipped} shipped / {got_back} backordered, expected {shipped} / {backordered}"
                    ));
                }
                let widget = wm
                    .class_iter("stock")
                    .find(|w| w.get("item") == Some(&Value::from("widget")))
                    .ok_or("widget stock tuple missing")?;
                if widget.get("on-hand") != Some(&Value::Int(0)) {
                    return Err(format!(
                        "widget stock ends at {:?}, expected 0",
                        widget.get("on-hand")
                    ));
                }
            }
            Check::Counters => {
                for w in wm.class_iter("watch").chain(wm.class_iter("feed")) {
                    if w.get("n") != Some(&Value::Int(0)) {
                        return Err(format!("{} counter ends at {:?}", w.data.class, w.get("n")));
                    }
                }
            }
        }
        Ok(())
    }
}

fn order(id: i64, item: &str, qty: i64, rush: bool) -> WmeData {
    WmeData::new("order")
        .with("id", id)
        .with("item", item)
        .with("qty", qty)
        .with("state", "received")
        .with("priority", if rush { "rush" } else { "normal" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_permutes_insertion_order_only() {
        let a = Spec::hot_join_orders(5, 2, 1);
        let b = Spec::hot_join_orders(5, 2, 2);
        assert_ne!(a.tuples, b.tuples);
        let key = |t: &WmeData| format!("{t:?}");
        let mut sa: Vec<String> = a.tuples.iter().map(key).collect();
        let mut sb: Vec<String> = b.tuples.iter().map(key).collect();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
        assert_eq!(Spec::hot_join_orders(5, 2, 1).tuples, a.tuples);
    }
}
