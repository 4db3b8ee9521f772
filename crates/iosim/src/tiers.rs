//! The tiered writer: synchronous node-local writes, background bleed to
//! the PFS, and time-window pruning — all with real files and modeled
//! clocks.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use hacc_fault::FaultProbe;
use hacc_rt::sync::Mutex;
use hacc_telem::FaultKind;

use crate::device::{NvmeModel, PfsModel};
use crate::format::{read_blocks, write_blocks, Block, FormatError};
use crate::inject;

/// Tiered-writer configuration.
#[derive(Debug, Clone)]
pub struct TieredConfig {
    /// Node-local staging directory (the "NVMe").
    pub local_dir: PathBuf,
    /// Shared parallel-file-system directory.
    pub pfs_dir: PathBuf,
    /// Number of recent checkpoints retained on the PFS.
    pub window: usize,
    /// NVMe device model.
    pub nvme: NvmeModel,
    /// PFS model.
    pub pfs: PfsModel,
    /// Nodes in the modeled machine (this writer stands for one node;
    /// machine-level bandwidths scale by this factor).
    pub n_nodes: usize,
}

impl TieredConfig {
    /// Frontier-parameter configuration rooted under `base`.
    pub fn frontier(base: &Path) -> Self {
        Self {
            local_dir: base.join("nvme"),
            pfs_dir: base.join("pfs"),
            window: 2,
            nvme: NvmeModel::frontier(),
            pfs: PfsModel::orion(),
            n_nodes: 9000,
        }
    }
}

/// One per-checkpoint I/O record (drives the Fig. 5 lower panel).
#[derive(Debug, Clone, Copy)]
pub struct StepIoRecord {
    /// PM step index.
    pub step: u64,
    /// Machine-aggregate bytes this checkpoint.
    pub machine_bytes: u64,
    /// Modeled machine NVMe bandwidth during the sync phase, TB/s.
    pub nvme_bw_tbs: f64,
    /// Modeled PFS bandwidth during the bleed, TB/s.
    pub pfs_bw_tbs: f64,
    /// Blocking (sync) seconds.
    pub sync_time_s: f64,
}

/// Accumulated I/O statistics.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Bytes written locally (this node).
    pub bytes_local: u64,
    /// Machine-aggregate bytes (local × n_nodes).
    pub bytes_machine: u64,
    /// Total modeled blocking time (sync NVMe writes + stalls), seconds.
    pub blocking_time_s: f64,
    /// Total modeled asynchronous PFS time, seconds.
    pub bleed_time_s: f64,
    /// Times the bleed backlog forced a stall.
    pub stalls: u64,
    /// Files actually bled to the PFS (real file count).
    pub files_bled: u64,
    /// Bytes actually copied to the PFS tier by the bleeder.
    pub bytes_bled: u64,
    /// Files pruned from the PFS.
    pub files_pruned: u64,
    /// Storage faults suffered (injected NVMe errors, torn writes, CRC
    /// corruptions).
    pub faults: u64,
    /// Per-step records.
    pub per_step: Vec<StepIoRecord>,
}

impl IoStats {
    /// Effective machine write bandwidth: total data over *blocking* time
    /// — the paper's headline 5.45 TB/s metric (it exceeds the PFS peak
    /// because the blocking path is NVMe-only).
    pub fn effective_bandwidth_tbs(&self) -> f64 {
        if self.blocking_time_s == 0.0 {
            return 0.0;
        }
        self.bytes_machine as f64 / 1.0e12 / self.blocking_time_s
    }

    /// Telemetry view: per-tier byte/file counters for the unified
    /// observability layer (`hacc_telem`).
    pub fn to_telem(&self) -> hacc_telem::IoCounters {
        hacc_telem::IoCounters {
            nvme_bytes: self.bytes_local,
            pfs_bytes: self.bytes_bled,
            nvme_writes: self.checkpoints,
            files_bled: self.files_bled,
            files_pruned: self.files_pruned,
            stalls: self.stalls,
            faults: self.faults,
        }
    }
}

enum BleedJob {
    File {
        step: u64,
        local_path: PathBuf,
        pfs_path: PathBuf,
        window: usize,
    },
    /// Acknowledged once every job queued before it has been processed.
    Sync(Sender<()>),
    Shutdown,
}

/// The per-node tiered writer. Files are really written and bled; clocks
/// are modeled at machine scale.
pub struct TieredWriter {
    cfg: TieredConfig,
    tx: Sender<BleedJob>,
    worker: Option<std::thread::JoinHandle<()>>,
    stats: Arc<Mutex<IoStats>>,
    /// Modeled simulation clock (seconds).
    now_s: f64,
    /// Modeled time at which the bleeder becomes idle.
    bleed_free_at_s: f64,
    /// Optional fault probe: planned storage faults fire through here.
    probe: Option<FaultProbe>,
}

impl TieredWriter {
    /// Create the writer, its directories, and the background bleeder.
    pub fn new(cfg: TieredConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.local_dir)?;
        std::fs::create_dir_all(&cfg.pfs_dir)?;
        let stats = Arc::new(Mutex::new(IoStats::default()));
        let (tx, rx) = channel::<BleedJob>();
        let stats_bg = Arc::clone(&stats);
        let worker = std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                match job {
                    BleedJob::Shutdown => break,
                    BleedJob::Sync(ack) => {
                        let _ = ack.send(());
                    }
                    BleedJob::File {
                        step,
                        local_path,
                        pfs_path,
                        window,
                    } => {
                        // Real copy local -> PFS, then drop the local copy
                        // and prune outdated PFS checkpoints.
                        if let Ok(copied) = std::fs::copy(&local_path, &pfs_path) {
                            let _ = std::fs::remove_file(&local_path);
                            let mut s = stats_bg.lock();
                            s.files_bled += 1;
                            s.bytes_bled += copied;
                            drop(s);
                            // Science outputs (step = MAX) never prune.
                            if step != u64::MAX {
                                let cutoff = step.saturating_sub(window as u64 - 1);
                                if let Some(dir) = pfs_path.parent() {
                                    prune_old(dir, cutoff, &stats_bg);
                                }
                            }
                        }
                    }
                }
            }
        });
        Ok(Self {
            cfg,
            tx,
            worker: Some(worker),
            stats,
            now_s: 0.0,
            bleed_free_at_s: 0.0,
            probe: None,
        })
    }

    /// Attach a fault probe. Subsequent checkpoint writes consult the
    /// probe's plan for storage faults: transient NVMe errors (retried
    /// in place after a modeled backoff), torn writes, and silent CRC
    /// corruption (both caught later by restart validation). With no
    /// probe armed the write path is byte-for-byte the pre-fault one.
    pub fn arm_faults(&mut self, probe: FaultProbe) {
        self.probe = Some(probe);
    }

    /// Checkpoint filename for a step.
    pub fn checkpoint_name(step: u64) -> String {
        format!("ckpt_{step:08}.gio")
    }

    /// Parse a step index from a checkpoint filename.
    pub fn parse_step(name: &str) -> Option<u64> {
        name.strip_prefix("ckpt_")?
            .strip_suffix(".gio")?
            .parse()
            .ok()
    }

    /// Advance the modeled simulation clock (solver compute between
    /// checkpoints) — this is what lets bleeds complete "for free".
    pub fn advance_time(&mut self, dt_s: f64) {
        self.now_s += dt_s.max(0.0);
    }

    /// Write one checkpoint through the tiers.
    ///
    /// * `phase` — PFS contention phase in `[0,1]` (drives the Fig. 5 band);
    /// * `slowdown` — NVMe slowdown factor (>1 during analysis outputs).
    ///
    /// Returns the modeled *blocking* seconds this write cost.
    pub fn write_checkpoint(
        &mut self,
        step: u64,
        blocks: &[Block],
        phase: f64,
        slowdown: f64,
    ) -> Result<f64, FormatError> {
        let name = Self::checkpoint_name(step);
        let local_path = self.cfg.local_dir.join(&name);
        let bytes = write_blocks(&local_path, blocks)?;
        let machine_bytes = bytes * self.cfg.n_nodes as u64;

        // Blocking sync phase on the NVMe.
        let mut sync_t = self.cfg.nvme.write_time_s(bytes, slowdown);

        if let Some(probe) = self.probe.clone() {
            if probe.fire(FaultKind::NvmeErr) {
                // Transient device error: the controller resets and the
                // write retries in full. The data on disk is fine; only
                // the modeled blocking time pays.
                sync_t += inject::NVME_RETRY_BACKOFF_S
                    + self.cfg.nvme.write_time_s(bytes, slowdown);
                self.stats.lock().faults += 1;
                probe.recovered(FaultKind::NvmeErr);
            }
            if probe.fire(FaultKind::CkptTorn) {
                // Torn write: the file lands truncated and will fail
                // validation at restart (which must skip it).
                inject::tear_file(&local_path)?;
                self.stats.lock().faults += 1;
            }
            if probe.fire(FaultKind::CkptCrc) {
                // Silent media corruption: same length, flipped byte;
                // only the CRC check at restart can catch it.
                inject::corrupt_crc(&local_path)?;
                self.stats.lock().faults += 1;
            }
        }
        // If the bleeder is still busy past the point where local capacity
        // would be exceeded (one full checkpoint of headroom), stall.
        let mut blocking = sync_t;
        let mut stalled = false;
        let backlog = self.bleed_free_at_s - self.now_s;
        let capacity_window_s = self
            .cfg
            .nvme
            .write_time_s((self.cfg.nvme.capacity_gb * 0.5e9) as u64, 1.0);
        if backlog > capacity_window_s {
            blocking += backlog - capacity_window_s;
            stalled = true;
        }
        self.now_s += blocking;

        // Asynchronous machine-wide bleed.
        let bleed_t = self.cfg.pfs.write_time_s(machine_bytes, phase);
        let start = self.bleed_free_at_s.max(self.now_s);
        self.bleed_free_at_s = start + bleed_t;

        // Hand the real file to the bleeder.
        self.tx
            .send(BleedJob::File {
                step,
                local_path,
                pfs_path: self.cfg.pfs_dir.join(&name),
                window: self.cfg.window,
            })
            .expect("bleeder alive");

        let mut s = self.stats.lock();
        s.checkpoints += 1;
        s.bytes_local += bytes;
        s.bytes_machine += machine_bytes;
        s.blocking_time_s += blocking;
        s.bleed_time_s += bleed_t;
        if stalled {
            s.stalls += 1;
        }
        s.per_step.push(StepIoRecord {
            step,
            machine_bytes,
            nvme_bw_tbs: machine_bytes as f64 / 1.0e12 / sync_t.max(1e-12),
            pfs_bw_tbs: self.cfg.pfs.bandwidth_tbs(phase),
            sync_time_s: sync_t,
        });
        Ok(blocking)
    }

    /// Write a non-checkpoint science output (analysis products — the
    /// paper's ~12 PB side channel) through the same tiers: synchronous
    /// local write, async bleed, but *no* pruning window (science outputs
    /// are permanent). Returns the modeled blocking seconds.
    pub fn write_output(
        &mut self,
        name: &str,
        blocks: &[Block],
        phase: f64,
        slowdown: f64,
    ) -> Result<f64, FormatError> {
        assert!(
            TieredWriter::parse_step(name).is_none(),
            "science outputs must not look like checkpoints"
        );
        let local_path = self.cfg.local_dir.join(name);
        let bytes = write_blocks(&local_path, blocks)?;
        let machine_bytes = bytes * self.cfg.n_nodes as u64;
        let sync_t = self.cfg.nvme.write_time_s(bytes, slowdown);
        self.now_s += sync_t;
        let bleed_t = self.cfg.pfs.write_time_s(machine_bytes, phase);
        let start = self.bleed_free_at_s.max(self.now_s);
        self.bleed_free_at_s = start + bleed_t;
        self.tx
            .send(BleedJob::File {
                step: u64::MAX, // never triggers pruning
                local_path,
                pfs_path: self.cfg.pfs_dir.join(name),
                window: usize::MAX,
            })
            .expect("bleeder alive");
        let mut s = self.stats.lock();
        s.bytes_local += bytes;
        s.bytes_machine += machine_bytes;
        s.blocking_time_s += sync_t;
        s.bleed_time_s += bleed_t;
        Ok(sync_t)
    }

    /// The no-tiering ablation: write the checkpoint directly to the PFS
    /// with every rank contending. Returns the modeled blocking seconds.
    pub fn write_direct_to_pfs(
        &mut self,
        step: u64,
        blocks: &[Block],
    ) -> Result<f64, FormatError> {
        let name = Self::checkpoint_name(step);
        let path = self.cfg.pfs_dir.join(&name);
        let bytes = write_blocks(&path, blocks)?;
        let machine_bytes = bytes * self.cfg.n_nodes as u64;
        let writers = self.cfg.n_nodes * 8; // 8 ranks per node
        let t = self.cfg.pfs.direct_write_time_s(machine_bytes, writers);
        self.now_s += t;
        let mut s = self.stats.lock();
        s.checkpoints += 1;
        s.bytes_local += bytes;
        s.bytes_machine += machine_bytes;
        s.blocking_time_s += t;
        Ok(t)
    }

    /// Wait for all queued bleeds to land on the real file system.
    pub fn drain(&self) {
        // The job channel is FIFO and the bleeder single-threaded: its
        // acknowledgement of a `Sync` job orders after every bleed queued
        // before this call. The wait is a plain OS block: the bleeder is
        // not a scheduler task, and a cooperative park on it would read as
        // world quiescence.
        let (ack_tx, ack_rx) = channel();
        self.tx.send(BleedJob::Sync(ack_tx)).expect("bleeder alive");
        ack_rx
            .recv()
            .expect("bleeder acknowledges a sync before exiting");
    }

    /// Shut down the bleeder (after it has processed every queued bleed)
    /// and return the statistics.
    pub fn finish(mut self) -> IoStats {
        self.shutdown();
        let stats = self.stats.lock().clone();
        stats
    }

    fn shutdown(&mut self) {
        let _ = self.tx.send(BleedJob::Shutdown);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }

    /// Locate the newest checkpoint on the PFS.
    pub fn latest_checkpoint(pfs_dir: &Path) -> Option<(u64, PathBuf)> {
        let mut best: Option<(u64, PathBuf)> = None;
        for entry in std::fs::read_dir(pfs_dir).ok()? {
            let entry = entry.ok()?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(step) = Self::parse_step(&name) {
                if best.as_ref().map(|(s, _)| step > *s).unwrap_or(true) {
                    best = Some((step, entry.path()));
                }
            }
        }
        best
    }

    /// Restart support: load the newest *valid* checkpoint, skipping any
    /// that fail CRC validation (torn by a crash).
    pub fn load_latest_valid(pfs_dir: &Path) -> Option<(u64, Vec<Block>)> {
        let mut steps: Vec<(u64, PathBuf)> = std::fs::read_dir(pfs_dir)
            .ok()?
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                Self::parse_step(&name).map(|s| (s, e.path()))
            })
            .collect();
        steps.sort_by_key(|(s, _)| std::cmp::Reverse(*s));
        for (step, path) in steps {
            if let Ok(blocks) = read_blocks(&path) {
                return Some((step, blocks));
            }
        }
        None
    }

    /// Steps of every checkpoint on the PFS that passes CRC validation,
    /// ascending. This is what the supervisor intersects across ranks to
    /// find a globally consistent rollback target.
    pub fn valid_checkpoint_steps(pfs_dir: &Path) -> Vec<u64> {
        let mut steps: Vec<u64> = std::fs::read_dir(pfs_dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let step = Self::parse_step(&name)?;
                read_blocks(&e.path()).ok().map(|_| step)
            })
            .collect();
        steps.sort_unstable();
        steps
    }

    /// Load the checkpoint at exactly `step`, validating CRC.
    pub fn load_checkpoint_at(pfs_dir: &Path, step: u64) -> Option<Vec<Block>> {
        read_blocks(&pfs_dir.join(Self::checkpoint_name(step))).ok()
    }
}

impl Drop for TieredWriter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn prune_old(dir: &Path, cutoff: u64, stats: &Arc<Mutex<IoStats>>) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Some(step) = TieredWriter::parse_step(&name) {
                if step < cutoff && std::fs::remove_file(e.path()).is_ok() {
                    stats.lock().files_pruned += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_base(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "hacc-tiers-{}-{}-{}",
            tag,
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn payload(n: usize) -> Vec<Block> {
        vec![
            Block::from_f64("x", &vec![1.25; n]),
            Block::from_u64("id", &(0..n as u64).collect::<Vec<_>>()),
        ]
    }

    #[test]
    fn checkpoints_bleed_to_pfs_and_prune() {
        let base = unique_base("bleed");
        let mut cfg = TieredConfig::frontier(&base);
        cfg.window = 2;
        let pfs_dir = cfg.pfs_dir.clone();
        let local_dir = cfg.local_dir.clone();
        let mut w = TieredWriter::new(cfg).unwrap();
        for step in 0..5 {
            w.write_checkpoint(step, &payload(100), 0.2, 1.0).unwrap();
            w.advance_time(600.0);
        }
        let stats = w.finish();
        assert_eq!(stats.checkpoints, 5);
        assert_eq!(stats.files_bled, 5);
        // Window of 2: only steps 3 and 4 remain.
        let mut kept: Vec<u64> = std::fs::read_dir(&pfs_dir)
            .unwrap()
            .flatten()
            .filter_map(|e| {
                TieredWriter::parse_step(&e.file_name().to_string_lossy())
            })
            .collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![3, 4]);
        // Local staging is clean.
        assert_eq!(std::fs::read_dir(&local_dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn drain_returns_only_after_every_queued_bleed_landed() {
        let base = unique_base("drain");
        let mut cfg = TieredConfig::frontier(&base);
        cfg.window = 64;
        let pfs_dir = cfg.pfs_dir.clone();
        let local_dir = cfg.local_dir.clone();
        let mut w = TieredWriter::new(cfg).unwrap();
        for step in 0..64 {
            w.write_checkpoint(step, &payload(16), 0.2, 1.0).unwrap();
        }
        w.drain();
        // No sleep: the acknowledgement alone orders after the last copy.
        assert_eq!(w.stats.lock().files_bled, 64);
        assert_eq!(std::fs::read_dir(&local_dir).unwrap().count(), 0);
        let (step, _) = TieredWriter::load_latest_valid(&pfs_dir).unwrap();
        assert_eq!(step, 63);
        // finish() with bleeds still queued and no drain() processes them.
        for step in 64..72 {
            w.write_checkpoint(step, &payload(16), 0.2, 1.0).unwrap();
        }
        let stats = w.finish();
        assert_eq!(stats.files_bled, 72);
        assert_eq!(std::fs::read_dir(&local_dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn drain_inside_a_scheduler_task_waits_for_the_bleeder() {
        // The bleeder is outside the scheduler's world: a cooperative
        // park on it from the world's only task would be diagnosed as a
        // deadlock. drain() must block the thread instead.
        let base = unique_base("drain-task");
        let cfg = TieredConfig::frontier(&base);
        let local_dir = cfg.local_dir.clone();
        let mut w = TieredWriter::new(cfg).unwrap();
        let task = hacc_rt::sched::Scheduler::new(1).register();
        task.run(|_| {
            for step in 0..8 {
                w.write_checkpoint(step, &payload(16), 0.2, 1.0).unwrap();
            }
            w.drain();
        });
        assert_eq!(w.stats.lock().files_bled, 8);
        assert_eq!(std::fs::read_dir(&local_dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn effective_bandwidth_exceeds_pfs_peak() {
        // The paper's headline: blocking path is NVMe-only, so effective
        // bandwidth beats the 4.6 TB/s Orion peak.
        let base = unique_base("bw");
        let cfg = TieredConfig::frontier(&base);
        let pfs_peak = cfg.pfs.peak_bw_tbs;
        let mut w = TieredWriter::new(cfg).unwrap();
        for step in 0..10 {
            w.write_checkpoint(step, &payload(2000), 0.3, 1.0).unwrap();
            w.advance_time(900.0); // 15 minutes of solver per step
        }
        let stats = w.finish();
        assert_eq!(stats.stalls, 0, "unexpected stalls");
        let eff = stats.effective_bandwidth_tbs();
        assert!(
            eff > pfs_peak,
            "effective {eff} TB/s should beat PFS peak {pfs_peak}"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn tiered_beats_direct_pfs() {
        let base = unique_base("ablate");
        let cfg = TieredConfig::frontier(&base);
        let mut wt = TieredWriter::new(cfg.clone()).unwrap();
        let mut wd = TieredWriter::new(TieredConfig {
            local_dir: base.join("nvme2"),
            pfs_dir: base.join("pfs2"),
            ..cfg
        })
        .unwrap();
        let blocks = payload(5000);
        let mut t_tiered = 0.0;
        let mut t_direct = 0.0;
        for step in 0..5 {
            t_tiered += wt.write_checkpoint(step, &blocks, 0.2, 1.0).unwrap();
            wt.advance_time(600.0);
            t_direct += wd.write_direct_to_pfs(step, &blocks).unwrap();
        }
        assert!(
            t_direct > 2.0 * t_tiered,
            "direct {t_direct} should be much slower than tiered {t_tiered}"
        );
        let _ = (wt.finish(), wd.finish());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn restart_from_latest_valid_checkpoint() {
        let base = unique_base("restart");
        let cfg = TieredConfig::frontier(&base);
        let pfs_dir = cfg.pfs_dir.clone();
        let mut w = TieredWriter::new(cfg).unwrap();
        for step in 0..3 {
            let blocks = vec![Block::from_u64("step", &[step])];
            w.write_checkpoint(step, &blocks, 0.0, 1.0).unwrap();
            w.advance_time(600.0);
        }
        let _ = w.finish();
        // Corrupt the newest checkpoint (simulated torn write).
        let (latest, path) = TieredWriter::latest_checkpoint(&pfs_dir).unwrap();
        assert_eq!(latest, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        // Restart must fall back to step 1.
        let (step, blocks) = TieredWriter::load_latest_valid(&pfs_dir).unwrap();
        assert_eq!(step, 1);
        assert_eq!(blocks[0].as_u64(), vec![1]);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn backlog_causes_stall_when_steps_too_fast() {
        let base = unique_base("stall");
        let mut cfg = TieredConfig::frontier(&base);
        // Tiny local capacity so the backlog window is small.
        cfg.nvme.capacity_gb = 1.0e-6;
        // Glacial PFS.
        cfg.pfs.peak_bw_tbs = 1.0e-9;
        let mut w = TieredWriter::new(cfg).unwrap();
        w.write_checkpoint(0, &payload(100), 0.0, 1.0).unwrap();
        // No solver time passes: immediately write again.
        w.write_checkpoint(1, &payload(100), 0.0, 1.0).unwrap();
        let stats = w.finish();
        assert!(stats.stalls >= 1, "expected a stall");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn parse_step_roundtrip() {
        assert_eq!(
            TieredWriter::parse_step(&TieredWriter::checkpoint_name(42)),
            Some(42)
        );
        assert_eq!(TieredWriter::parse_step("garbage"), None);
    }

    #[test]
    fn science_outputs_bleed_but_never_prune() {
        let base = unique_base("science");
        let cfg = TieredConfig::frontier(&base);
        let pfs_dir = cfg.pfs_dir.clone();
        let mut w = TieredWriter::new(cfg).unwrap();
        w.write_output("halos_000.gio", &payload(50), 0.1, 1.3).unwrap();
        for step in 0..4 {
            w.write_checkpoint(step, &payload(50), 0.1, 1.0).unwrap();
            w.advance_time(600.0);
        }
        let stats = w.finish();
        assert_eq!(stats.files_bled, 5);
        // The science output survives the checkpoint window.
        assert!(pfs_dir.join("halos_000.gio").exists());
        // Checkpoint pruning still happened (window 2: steps 2, 3).
        let ckpts = std::fs::read_dir(&pfs_dir)
            .unwrap()
            .flatten()
            .filter(|e| {
                TieredWriter::parse_step(&e.file_name().to_string_lossy()).is_some()
            })
            .count();
        assert_eq!(ckpts, 2);
        let _ = std::fs::remove_dir_all(&base);
    }

    fn armed_writer(cfg: TieredConfig, spec: &str, steps: u64) -> TieredWriter {
        let plan = hacc_fault::FaultPlan::parse(spec, 0, steps, 1).unwrap();
        let state = std::sync::Arc::new(hacc_fault::FaultState::new(plan, 1));
        let mut w = TieredWriter::new(cfg).unwrap();
        w.arm_faults(FaultProbe::new(state, 0));
        w
    }

    #[test]
    fn injected_crc_fault_is_skipped_by_restart() {
        let base = unique_base("inj-crc");
        let mut cfg = TieredConfig::frontier(&base);
        cfg.window = 16; // keep everything: this test is about CRC skip
        let pfs_dir = cfg.pfs_dir.clone();
        let mut w = armed_writer(cfg, "ckpt-crc@2:0", 3);
        for step in 0..3u64 {
            w.probe.as_ref().unwrap().set_step(step);
            let blocks = vec![Block::from_u64("step", &[step])];
            w.write_checkpoint(step, &blocks, 0.0, 1.0).unwrap();
            w.advance_time(600.0);
        }
        let stats = w.finish();
        assert_eq!(stats.faults, 1);
        // The newest checkpoint (step 2) is silently corrupt; restart
        // must fall back to step 1.
        let (step, blocks) = TieredWriter::load_latest_valid(&pfs_dir).unwrap();
        assert_eq!(step, 1);
        assert_eq!(blocks[0].as_u64(), vec![1]);
        assert_eq!(TieredWriter::valid_checkpoint_steps(&pfs_dir), vec![0, 1]);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn injected_torn_write_is_skipped_by_restart() {
        let base = unique_base("inj-torn");
        let cfg = TieredConfig::frontier(&base);
        let pfs_dir = cfg.pfs_dir.clone();
        let mut w = armed_writer(cfg, "ckpt-torn@1:0", 2);
        for step in 0..2u64 {
            w.probe.as_ref().unwrap().set_step(step);
            let blocks = vec![Block::from_u64("step", &[step])];
            w.write_checkpoint(step, &blocks, 0.0, 1.0).unwrap();
            w.advance_time(600.0);
        }
        let _ = w.finish();
        let (step, _) = TieredWriter::load_latest_valid(&pfs_dir).unwrap();
        assert_eq!(step, 0, "torn step-1 file must be skipped");
        assert!(TieredWriter::load_checkpoint_at(&pfs_dir, 1).is_none());
        assert!(TieredWriter::load_checkpoint_at(&pfs_dir, 0).is_some());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn transient_nvme_error_retries_in_place() {
        let base = unique_base("inj-nvme");
        let cfg = TieredConfig::frontier(&base);
        let pfs_dir = cfg.pfs_dir.clone();
        // Identical unarmed writer for the cost comparison.
        let clean_cfg = TieredConfig {
            local_dir: base.join("nvme2"),
            pfs_dir: base.join("pfs2"),
            ..cfg.clone()
        };
        let mut w = armed_writer(cfg, "nvme-err@0:0", 1);
        let probe = w.probe.clone().unwrap();
        let mut clean = TieredWriter::new(clean_cfg).unwrap();
        let blocks = payload(200);
        let t_faulty = w.write_checkpoint(0, &blocks, 0.0, 1.0).unwrap();
        let t_clean = clean.write_checkpoint(0, &blocks, 0.0, 1.0).unwrap();
        assert!(
            t_faulty > t_clean + crate::inject::NVME_RETRY_BACKOFF_S * 0.99,
            "retry must cost modeled time: {t_faulty} vs {t_clean}"
        );
        let stats = w.finish();
        let _ = clean.finish();
        assert_eq!(stats.faults, 1);
        assert_eq!(stats.to_telem().faults, 1);
        assert_eq!(probe.counters().recovered(FaultKind::NvmeErr), 1);
        // The data itself is intact: the retry succeeded.
        let (step, _) = TieredWriter::load_latest_valid(&pfs_dir).unwrap();
        assert_eq!(step, 0);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn ramdisk_tier_is_faster_than_nvme() {
        let nvme = crate::device::NvmeModel::frontier();
        let ram = crate::device::NvmeModel::aurora_ramdisk();
        let bytes = 1 << 30;
        assert!(ram.write_time_s(bytes, 1.0) < nvme.write_time_s(bytes, 1.0));
    }
}
