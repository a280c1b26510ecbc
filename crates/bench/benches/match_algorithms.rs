//! X4 — match-substrate ablation: Rete vs TREAT (the two algorithms the
//! paper's §2 survey contrasts), on build cost and incremental updates.

use dps_bench::harness::{BenchmarkId, Criterion};
use dps_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use dps_bench::workloads;
use dps_match::{Matcher, Rete, Treat};
use dps_wm::{Change, WmeData, WorkingMemory};

fn build(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_build");
    for &jobs in &[10usize, 100] {
        let (rules, wm) = workloads::manufacturing(jobs, 8);
        g.bench_with_input(BenchmarkId::new("rete", jobs), &jobs, |b, _| {
            b.iter(|| Rete::new(black_box(&rules), black_box(&wm)))
        });
        g.bench_with_input(BenchmarkId::new("treat", jobs), &jobs, |b, _| {
            b.iter(|| Treat::new(black_box(&rules), black_box(&wm)))
        });
    }
    g.finish();
}

/// One add + one remove churned through an already-loaded matcher: the
/// incremental cost the two algorithms trade off differently.
fn churn<M: Matcher>(matcher: &mut M, wm: &mut WorkingMemory) {
    let w = wm.insert_full(WmeData::new("job").with("stage", 0i64));
    matcher.apply(&[Change::Added(w.clone())]);
    let removed = wm.remove(w.id).expect("just inserted");
    matcher.apply(&[Change::Removed(removed)]);
}

fn incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_incremental");
    for &jobs in &[10usize, 100] {
        let (rules, wm) = workloads::manufacturing(jobs, 8);
        g.bench_with_input(BenchmarkId::new("rete_churn", jobs), &jobs, |b, _| {
            let mut rete = Rete::new(&rules, &wm);
            let mut wm = wm.clone();
            b.iter(|| churn(&mut rete, &mut wm))
        });
        g.bench_with_input(BenchmarkId::new("treat_churn", jobs), &jobs, |b, _| {
            let mut treat = Treat::new(&rules, &wm);
            let mut wm = wm.clone();
            b.iter(|| churn(&mut treat, &mut wm))
        });
    }
    g.finish();
}

/// Negation-heavy churn: the case where TREAT must re-join from scratch
/// while Rete updates counters.
fn negation_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_negation");
    let (rules, mut wm) = workloads::false_conflicts(50, 0);
    // A standing population of non-matching alarms to join against.
    for z in 0..50i64 {
        wm.insert(WmeData::new("alarm").with("zone", 1000 + z));
    }
    g.bench_function("rete_alarm_churn", |b| {
        let mut rete = Rete::new(&rules, &wm);
        let mut wm = wm.clone();
        b.iter(|| {
            let w = wm.insert_full(WmeData::new("alarm").with("zone", 5000i64));
            rete.apply(&[Change::Added(w.clone())]);
            let removed = wm.remove(w.id).unwrap();
            rete.apply(&[Change::Removed(removed)]);
        })
    });
    g.bench_function("treat_alarm_churn", |b| {
        let mut treat = Treat::new(&rules, &wm);
        let mut wm = wm.clone();
        b.iter(|| {
            let w = wm.insert_full(WmeData::new("alarm").with("zone", 5000i64));
            treat.apply(&[Change::Added(w.clone())]);
            let removed = wm.remove(w.id).unwrap();
            treat.apply(&[Change::Removed(removed)]);
        })
    });
    g.finish();
}

/// Per-token cost of the beta network: one `Rete::apply` of a modify to a
/// hot tuple that `n` tokens join. The modify retracts the old tuple
/// (deleting `n` join tokens and their instantiations) and asserts the
/// new one (rebuilding them), so the time per row divided by `n` is the
/// per-token cost below the end-to-end numbers.
fn hot_tuple_modify(c: &mut Criterion) {
    use dps_rules::RuleSet;
    use dps_wm::{DeltaSet, Value};

    let rules = RuleSet::parse(
        "(p take (o ^st r ^item <i> ^q <q>) (s ^item <i> ^n >= <q> ^n <s>) --> (remove 1))",
    )
    .unwrap();
    let mut g = c.benchmark_group("match_hot_tuple");
    for &n in &[100usize, 500] {
        let mut wm = WorkingMemory::new();
        let hot = wm.insert(WmeData::new("s").with("item", "w").with("n", 1_000_000i64));
        for q in 0..n as i64 {
            wm.insert(
                WmeData::new("o")
                    .with("st", "r")
                    .with("item", "w")
                    .with("q", 1 + q % 7),
            );
        }
        g.bench_with_input(BenchmarkId::new("hot_tuple_modify", n), &n, |b, &n| {
            let mut rete = Rete::new(&rules, &wm);
            let mut wm = wm.clone();
            let mut stock = 1_000_000i64;
            b.iter(|| {
                stock -= 1;
                let mut d = DeltaSet::new();
                d.modify(hot, [("n".into(), Value::Int(stock))]);
                let changes = wm.apply(&d).unwrap();
                rete.apply(black_box(&changes));
                assert_eq!(rete.conflict_set().len(), n);
            })
        });
    }
    g.finish();
}

/// TREAT's purge on retraction: removing one hot WME that `fanout`
/// instantiations matched, through TREAT's WME → instantiation index,
/// next to an equal population of bystanders that must survive. The
/// per-iteration `clone` of the pre-built matcher is fixed noise.
fn treat_purge(c: &mut Criterion) {
    use dps_rules::RuleSet;

    let rules = RuleSet::parse(
        "(p take (hot ^k <k>) (x ^k <k>) --> (remove 2))
         (p idle (y) --> (remove 1))",
    )
    .unwrap();
    let mut g = c.benchmark_group("treat_purge");
    for &fanout in &[64usize, 512] {
        let mut wm = WorkingMemory::new();
        let hot = wm.insert(WmeData::new("hot").with("k", 1i64));
        for _ in 0..fanout {
            wm.insert(WmeData::new("x").with("k", 1i64));
            wm.insert(WmeData::new("y"));
        }
        let base = Treat::new(&rules, &wm);
        let removed = wm.get(hot).expect("hot is live").clone();
        assert_eq!(base.conflict_set().len(), 2 * fanout);
        g.bench_with_input(
            BenchmarkId::new("remove_hot_wme", fanout),
            &fanout,
            |b, &fanout| {
                b.iter(|| {
                    let mut treat = base.clone();
                    treat.apply(black_box(&[Change::Removed(removed.clone())]));
                    assert_eq!(treat.conflict_set().len(), fanout);
                    black_box(treat.conflict_set().len())
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    build,
    incremental,
    negation_churn,
    hot_tuple_modify,
    treat_purge
);
criterion_main!(benches);
