//! Layer replay: a run's committed [`Trace`] is fed back through each
//! layer's public entry point, one call at a time, and each call is
//! timed here. Replay is sequential, so the times are service times
//! without waiting; the run's own counters supply the waiting.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use dps_core::{ParallelReport, Trace};
use dps_lock::{ConflictPolicy, LockManager, LockMode, ResourceId};
use dps_match::{ShardedRete, DEFAULT_MATCH_SHARDS};
use dps_obs::{ObsReport, Phase};
use dps_rules::RuleSet;
use dps_wm::{Atom, DurableWm, WorkingMemory};

use crate::{note, Output, WORKERS};

/// Summed service times and counts of one replay.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Firings replayed.
    pub commits: u64,
    /// `WorkingMemory::apply` time.
    pub wm_ns: u64,
    /// WM changes produced by the applies.
    pub wm_changes: u64,
    /// `ShardedRete::new` time, seconds.
    pub match_build_s: f64,
    /// `ShardedRete::apply` time.
    pub match_ns: u64,
    /// Largest conflict set seen after an apply.
    pub conflict_set_peak: u64,
    /// `LockManager::lock` + `commit` time.
    pub lock_ns: u64,
    /// `LockManager::lock` calls (all granted: replay is uncontended).
    pub lock_grants: u64,
    /// `WalWriter::append` time.
    pub wal_append_ns: u64,
    /// `WalWriter::sync_to` time (one sync after the last append).
    pub wal_sync_ns: u64,
    /// WAL fsyncs issued.
    pub wal_fsyncs: u64,
    /// WAL bytes written.
    pub wal_bytes: u64,
}

impl LayerTimes {
    /// Service time of the layers a commit passes through. The WAL
    /// counts only when the measured run had durability on.
    pub fn service_ns(&self, with_wal: bool) -> u64 {
        let wal = if with_wal {
            self.wal_append_ns + self.wal_sync_ns
        } else {
            0
        };
        self.wm_ns + self.match_ns + self.lock_ns + wal
    }
}

fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_nanos() as u64;
    out
}

/// Replays `trace` from `initial` through the WM store, the sharded
/// matcher, a fresh lock manager (the §4.3 `Rc`/`Ra`/`Wa` modes over
/// each firing's resources, as the engine derives them) and a WAL in
/// `wal_dir`.
pub fn replay(
    rules: &RuleSet,
    initial: &WorkingMemory,
    trace: &Trace,
    wal_dir: &Path,
) -> Result<LayerTimes, String> {
    let mut t = LayerTimes::default();
    let mut wm = initial.clone();
    let build = Instant::now();
    let mut rete = ShardedRete::new(rules, &wm, DEFAULT_MATCH_SHARDS);
    t.match_build_s = build.elapsed().as_secs_f64();
    let lm = LockManager::new(ConflictPolicy::AbortReaders);
    let durable = DurableWm::create(wal_dir, &wm, 0).map_err(|e| format!("wal create: {e}"))?;
    let wal = durable.writer();
    let mut relations: HashMap<Atom, u32> = HashMap::new();
    let mut relation = |class: &Atom| {
        let next = relations.len() as u32;
        ResourceId::Relation(*relations.entry(class.clone()).or_insert(next))
    };

    for (i, firing) in trace.firings.iter().enumerate() {
        let seq = i as u64 + 1;
        let class_of = |id: u64| {
            wm.get(dps_wm::WmeId(id))
                .map(|w| w.data.class.clone())
                .ok_or_else(|| format!("commit #{i}: tuple {id} is not live"))
        };
        // Resources, derived as the engine derives them.
        let reads: Vec<u64> = firing.key.wmes.iter().map(|(id, _)| id.0).collect();
        let written: Vec<u64> = firing.delta.written_ids().map(|id| id.0).collect();
        let mut cond = Vec::new();
        let mut writes = Vec::new();
        if !firing.external {
            cond.extend(reads.iter().map(|&id| ResourceId::Tuple(id)));
            let rule = rules
                .get(firing.rule)
                .ok_or_else(|| format!("commit #{i}: unknown rule"))?;
            for c in rule.conditions.iter().filter(|c| c.is_negated()) {
                cond.push(relation(&c.ce().class));
            }
        }
        for &id in &written {
            writes.push(ResourceId::Tuple(id));
            writes.push(relation(&class_of(id)?));
        }
        for class in firing.delta.created_classes() {
            writes.push(relation(class));
        }
        cond.sort_unstable();
        cond.dedup();
        writes.sort_unstable();
        writes.dedup();
        let action_reads: Vec<ResourceId> = reads
            .iter()
            .map(|&id| ResourceId::Tuple(id))
            .filter(|r| !writes.contains(r))
            .collect();

        let txn = lm.begin();
        let locks = cond
            .iter()
            .map(|r| (r, LockMode::Rc))
            .chain(action_reads.iter().map(|r| (r, LockMode::Ra)))
            .chain(writes.iter().map(|r| (r, LockMode::Wa)));
        for (res, mode) in locks {
            timed(&mut t.lock_ns, || lm.lock(txn, *res, mode))
                .map_err(|e| format!("commit #{i}: replayed lock refused: {e:?}"))?;
            t.lock_grants += 1;
        }
        timed(&mut t.lock_ns, || lm.commit(txn))
            .map_err(|e| format!("commit #{i}: replayed lock commit failed: {e:?}"))?;

        let changes = timed(&mut t.wm_ns, || wm.apply(&firing.delta))
            .map_err(|e| format!("commit #{i}: delta no longer applies: {e}"))?;
        t.wm_changes += changes.len() as u64;
        timed(&mut t.match_ns, || rete.apply(&changes));
        t.conflict_set_peak = t.conflict_set_peak.max(rete.len() as u64);
        timed(&mut t.wal_append_ns, || wal.append(seq, &changes))
            .map_err(|e| format!("commit #{i}: wal append: {e}"))?;
        t.commits += 1;
    }
    timed(&mut t.wal_sync_ns, || wal.sync_to(t.commits)).map_err(|e| format!("wal sync: {e}"))?;
    let stats = wal.stats();
    t.wal_fsyncs = stats.fsyncs;
    t.wal_bytes = stats.bytes_written;
    Ok(t)
}

/// Puts the engine-layer metrics of one traced run: the recorder's
/// phase means and waits, the run's counters, and the replay's service
/// times. `durable`: the run had the WAL on, so its service time and
/// its own fsync/byte counters count.
pub fn put_layers(
    out: &mut Output,
    report: &ParallelReport,
    obs: &ObsReport,
    layers: &LayerTimes,
    durable: bool,
) {
    let commits = report.trace.len().max(1) as f64;
    let busy_ns = report.wall.as_nanos() as f64 * WORKERS as f64;
    let phase = |p: Phase| {
        obs.phase(p)
            .cloned()
            .unwrap_or_else(|| panic!("{p:?} missing"))
    };
    let wait = phase(Phase::LockWait);
    let a = report.aborts;
    let attributed = layers.service_ns(durable) as f64 + wait.sum as f64;
    out.put("core.unattributed_share", 1.0 - attributed / busy_ns);
    out.put("core.aborts_per_commit", a.total() as f64 / commits);
    out.put("core.aborts.doomed", a.doomed as f64);
    out.put("core.aborts.stale", a.stale as f64);
    out.put("core.aborts.deadlock", a.deadlock as f64);
    out.put(
        "core.aborts.other",
        (a.total() - a.doomed - a.stale - a.deadlock) as f64,
    );
    out.put("core.lhs_eval_mean_ns", phase(Phase::LhsEval).mean() as f64);
    out.put("core.rhs_act_mean_ns", phase(Phase::RhsAct).mean() as f64);
    out.put("core.commit_mean_ns", phase(Phase::Commit).mean() as f64);
    out.put(
        "core.match_apply_mean_ns",
        phase(Phase::MatchApply).mean() as f64,
    );
    out.put(
        "core.fanout.applies_per_commit",
        report.fanout.applies as f64 / commits,
    );
    out.put("core.fanout.steals", report.fanout.steals as f64);
    out.put(
        "match.apply_ns_per_commit",
        layers.match_ns as f64 / commits,
    );
    out.put("match.apply_share", layers.match_ns as f64 / busy_ns);
    out.put("match.build_s", layers.match_build_s);
    out.put("match.conflict_set_peak", layers.conflict_set_peak as f64);
    out.put("wm.apply_ns_per_commit", layers.wm_ns as f64 / commits);
    out.put("wm.changes_per_commit", layers.wm_changes as f64 / commits);
    let locks = report.lock_stats;
    out.put("lock.grants_per_commit", locks.grants as f64 / commits);
    out.put("lock.blocks_per_commit", locks.blocks as f64 / commits);
    out.put("lock.dooms", locks.dooms as f64);
    out.put("lock.deadlocks", locks.deadlocks as f64);
    out.put("lock.wait_share", wait.sum as f64 / busy_ns);
    out.put("lock.wait_mean_ns", wait.mean() as f64);
    out.put(
        "lock.grant_ns",
        layers.lock_ns as f64 / layers.lock_grants.max(1) as f64,
    );
    let (fsyncs, bytes) = match (&report.wal, durable) {
        (Some(w), true) => (w.fsyncs, w.bytes_written),
        _ => (layers.wal_fsyncs, layers.wal_bytes),
    };
    out.put("wal.fsyncs_per_commit", fsyncs as f64 / commits);
    out.put("wal.bytes_per_commit", bytes as f64 / commits);
    out.put("wal.append_ns", layers.wal_append_ns as f64 / commits);
    note(format!(
        "layer shares of {WORKERS} x wall: match {:.3}, wm {:.3}, lock service {:.3}, lock wait {:.3}, wal {:.3}; unattributed {:.3}",
        layers.match_ns as f64 / busy_ns,
        layers.wm_ns as f64 / busy_ns,
        layers.lock_ns as f64 / busy_ns,
        wait.sum as f64 / busy_ns,
        if durable { (layers.wal_append_ns + layers.wal_sync_ns) as f64 / busy_ns } else { 0.0 },
        1.0 - attributed / busy_ns,
    ));
}
