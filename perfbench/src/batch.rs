//! The three batch workloads: generated rules and tuples run to
//! quiescence on a [`ParallelEngine`] with [`WORKERS`] workers, as
//! many times as the measurement budget allows.

use std::time::Instant;

use dps_core::semantics::validate_trace;
use dps_core::{ParallelConfig, ParallelEngine, ParallelReport, Trace};
use dps_obs::ObsReport;
use dps_rules::RuleSet;
use dps_wm::WorkingMemory;

use crate::replay::{put_layers, replay};
use crate::stats::{median, Tally};
use crate::workloads::Spec;
use crate::{cpu_s, note, peak_rss_mb, scratch_dir, Args, Output, SETUP_SAMPLES, WORKERS};

/// Fewest engine runs a measurement makes, whatever the budget.
const MIN_REPS: usize = 3;

fn spec(args: &Args) -> Spec {
    match args.workload.as_str() {
        "wide_conflict_set" => Spec::wide_conflict_set(8, 800, args.seed),
        "hot_join_orders" => Spec::hot_join_orders(500, 60, args.seed),
        "guarded_counters" => Spec::guarded_counters(32, 1000, 8, 1000, args.seed),
        other => unreachable!("not a batch workload: {other}"),
    }
}

/// Set-up from generated inputs to a ready engine: rule parse plus
/// engine construction (which builds the Rete). Returns the parse and
/// total set-up times.
fn setup(
    spec: &Spec,
    initial: &WorkingMemory,
    observe: bool,
) -> Result<(RuleSet, ParallelEngine, f64, f64), String> {
    let wm = initial.clone();
    let t0 = Instant::now();
    let rules = RuleSet::parse(&spec.rules).map_err(|e| format!("rules: {e:?}"))?;
    let parse_s = t0.elapsed().as_secs_f64();
    let config = ParallelConfig {
        workers: WORKERS,
        max_commits: spec.commits * 2 + 16,
        observe,
        ..ParallelConfig::default()
    };
    let engine = ParallelEngine::new(&rules, wm, config);
    Ok((rules, engine, parse_s, t0.elapsed().as_secs_f64()))
}

/// One checked engine run.
struct Rep {
    parse_s: f64,
    setup_s: f64,
    validate_s: f64,
    /// Process CPU seconds spent in `run()`.
    cpu_s: f64,
    report: ParallelReport,
    obs: Option<ObsReport>,
    rules: RuleSet,
}

impl Rep {
    fn commits_per_s(&self) -> f64 {
        self.report.commits as f64 / self.report.wall.as_secs_f64()
    }
}

/// Set-up, run, then — untimed — the final-state checks and the oracle
/// replay.
fn rep(spec: &Spec, initial: &WorkingMemory, observe: bool) -> Result<Rep, String> {
    let (rules, mut engine, parse_s, setup_s) = setup(spec, initial, observe)?;
    let cpu0 = cpu_s()?;
    let report = engine.run();
    let cpu_s = cpu_s()? - cpu0;
    if report.commits != spec.commits || report.trace.len() != spec.commits {
        return Err(format!(
            "{} commits ({} traced), expected {}",
            report.commits,
            report.trace.len(),
            spec.commits
        ));
    }
    if engine.held_locks() != 0 || engine.snapshot_pins() != 0 {
        return Err(format!(
            "{} locks and {} snapshot pins held after drain",
            engine.held_locks(),
            engine.snapshot_pins()
        ));
    }
    spec.check(&engine.final_wm())?;
    let t = Instant::now();
    validate_trace(&rules, initial, &report.trace).map_err(|v| format!("oracle: {v}"))?;
    let validate_s = t.elapsed().as_secs_f64();
    let obs = engine.observer().map(|r| r.report());
    Ok(Rep {
        parse_s,
        setup_s,
        validate_s,
        cpu_s,
        report,
        obs,
        rules,
    })
}

/// Runs reps until `until` (at least [`MIN_REPS`]). Only the last rep
/// keeps its trace. Also returns the peak RSS after the first rep: the
/// footprint of one set-up, run and check, before repeated runs in one
/// process add allocator growth of their own.
fn reps(
    spec: &Spec,
    initial: &WorkingMemory,
    observe: bool,
    until: Instant,
) -> Result<(Vec<Rep>, f64), String> {
    let mut out: Vec<Rep> = vec![rep(spec, initial, observe)?];
    let peak_mb = peak_rss_mb()?;
    while out.len() < MIN_REPS || Instant::now() < until {
        if let Some(prev) = out.last_mut() {
            prev.report.trace = Trace::default();
        }
        out.push(rep(spec, initial, observe)?);
    }
    Ok((out, peak_mb))
}

fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Firing attempts: every commit and every abort (an abort is a failed
/// attempt the engine retries).
fn attempts(reps: &[Rep]) -> Tally {
    let mut t = Tally::default();
    for r in reps {
        let aborts = r.report.aborts.total();
        t.add(Tally {
            attempted: r.report.commits as u64 + aborts,
            failed: aborts,
        });
    }
    t
}

/// Runs a batch workload (see the module docs).
pub fn run(args: &Args) -> Result<Output, String> {
    let start = Instant::now();
    let spec = spec(args);
    let initial = spec.initial_wm();
    note(format!(
        "inputs: {} tuples, {} rule commits per run, insertion order permuted by the seed",
        spec.tuples.len(),
        spec.commits
    ));
    let mut out = Output::default();
    if !args.trace {
        let (runs, peak_mb) = reps(&spec, &initial, false, start + args.seconds)?;
        out.ops = Tally {
            attempted: runs.len() as u64,
            failed: 0,
        };
        note(format!(
            "engine runs: {}, each checked by the oracle and the final-state checks; median run {:.3} s, oracle {:.3} s",
            runs.len(),
            med(&runs, |r| r.report.wall.as_secs_f64()),
            med(&runs, |r| r.validate_s)
        ));
        let cps: Vec<String> = runs
            .iter()
            .map(|r| format!("{:.0}", r.commits_per_s()))
            .collect();
        note(format!("commits/s per run: {}", cps.join(" ")));
        let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        while setups.len() < SETUP_SAMPLES {
            setups.push(setup(&spec, &initial, false)?.3);
        }
        out.put("setup_s", median(&setups));
        out.put("peak_rss_mb", peak_mb);
        out.put("commits_per_s", med(&runs, Rep::commits_per_s));
        out.put("ok_share", 1.0 - attempts(&runs).failed_share());
        // Pooled, not a median of runs: one run's CPU time is a few
        // hundred ticks of 10 ms.
        let cpu: f64 = runs.iter().map(|r| r.cpu_s).sum();
        let commits: usize = runs.iter().map(|r| r.report.commits).sum();
        out.put("cpu_us_per_commit", cpu * 1e6 / commits as f64);
        return Ok(out);
    }

    // Traced run: untraced reps for the overhead baseline, then traced
    // reps, then the layer replay of the last traced rep.
    let (plain, _) = reps(&spec, &initial, false, start + args.seconds / 2)?;
    let (traced, _) = reps(&spec, &initial, true, start + args.seconds)?;
    out.ops = Tally {
        attempted: (plain.len() + traced.len()) as u64,
        failed: 0,
    };
    note(format!(
        "engine runs: {} untraced + {} traced",
        plain.len(),
        traced.len()
    ));
    let last = traced.last().expect("at least one traced rep");
    let dir = scratch_dir("replay");
    let layers = replay(&last.rules, &initial, &last.report.trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let obs = last
        .obs
        .as_ref()
        .expect("traced reps carry a recorder report");
    put_layers(&mut out, &last.report, obs, &layers?, false);
    out.put("rules.parse_s", med(&traced, |r| r.parse_s));
    let overhead = med(&plain, Rep::commits_per_s) / med(&traced, Rep::commits_per_s) - 1.0;
    out.put("obs.trace_overhead", overhead);
    out.put("semantics.replay_s", med(&traced, |r| r.validate_s));
    // A batch run has no client, server or WAL of its own.
    let session_only = [
        "write_",
        "read_",
        "server.",
        "loadgen.",
        "wal.write_amp",
        "wal.ack_lag",
    ];
    for (name, _) in crate::PER_LAYER {
        if session_only.iter().any(|p| name.starts_with(p)) {
            out.put(name, 0.0);
        }
    }
    Ok(out)
}
