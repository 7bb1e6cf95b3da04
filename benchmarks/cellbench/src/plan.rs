//! The frozen work counts. Every count is a constant calibrated once on
//! the seed commit (see the README's calibration note) so that a run at
//! `--seconds 10` spends about ten seconds in its measured phases on
//! the baseline machine. Nothing is derived from wall time while a run
//! is in progress: two commits given the same arguments do identical
//! work, and a faster commit simply finishes sooner. `--seconds` scales
//! the repeat counts linearly; it never changes an input's size or
//! shape, so per-operation metrics stay comparable across lengths.

use worldgen::WorldConfig;

use crate::json::Json;
use crate::obj;

/// Seconds the per-10-second counts below are calibrated for.
const CALIBRATED_SECONDS: u64 = 10;

/// `per_ten` repeats per ten seconds, scaled to `seconds`, at least `floor`.
fn scaled(per_ten: u64, seconds: u64, floor: u64) -> usize {
    (per_ten * seconds / CALIBRATED_SECONDS).max(floor) as usize
}

/// How many times a run builds its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Queries per request frame, in-process and on the wire.
pub const FRAME: usize = 64;

/// Client connections of `serve-tcp` (the sandbox has two cores).
pub const CONNECTIONS: usize = 2;

/// The world a read-side workload serves: the paper world at block
/// scale 0.1 (≈890k blocks, ≈37k served prefixes), or the mini world
/// under `--smoke`.
pub fn serving_world(seed: u64, smoke: bool) -> WorldConfig {
    if smoke {
        return WorldConfig::mini().with_seed(seed);
    }
    const SCALE: f64 = 0.1;
    let mut cfg = WorldConfig::paper().with_seed(seed).with_block_scale(SCALE);
    cfg.filler_as_scale = SCALE;
    cfg.netinfo_hits_total = 300.0e6 * SCALE;
    cfg.demand_only_blocks24 = (2_000_000.0 * SCALE) as u64;
    cfg
}

/// Counts of `lookup-skew` and `lookup-scan`.
#[derive(Clone, Copy, Debug)]
pub struct LookupPlan {
    /// Queries in the trace; one pass replays them all in one `run`.
    pub queries: usize,
    /// Timed passes.
    pub passes: usize,
    /// Untimed passes before them (page in the map, warm the allocator).
    pub warmup_passes: usize,
    /// Timed 64-query `run` calls behind `request_p50_us`.
    pub frames: usize,
    /// Passes of the traced run's 2-thread leg.
    pub threads2_passes: usize,
}

impl LookupPlan {
    /// The plan for a run length.
    pub fn new(seconds: u64, smoke: bool) -> LookupPlan {
        if smoke {
            return LookupPlan {
                queries: 20_000,
                passes: 12,
                warmup_passes: 1,
                frames: 300,
                threads2_passes: 3,
            };
        }
        LookupPlan {
            queries: 2_000_000,
            passes: scaled(40, seconds, 12),
            warmup_passes: 2,
            frames: 30_000,
            threads2_passes: 7,
        }
    }

    /// The counts, for the record.
    pub fn to_json(&self) -> Json {
        obj! {
            "queries" => self.queries,
            "passes" => self.passes,
            "warmup_passes" => self.warmup_passes,
            "frames" => self.frames,
            "frame" => FRAME,
            "threads2_passes" => self.threads2_passes,
            "engine_threads" => 1usize,
            "setup_reps" => SETUP_REPS,
        }
    }
}

/// One open-loop rung: a fixed rate held for a fixed number of frames.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Frames per second across all connections.
    pub frames_per_s: f64,
    /// Frames sent at that rate.
    pub frames: usize,
}

/// Counts of `serve-tcp`.
#[derive(Clone, Debug)]
pub struct ServePlan {
    /// Queries in the `steady` trace the frames are cut from.
    pub queries: usize,
    /// Closed-loop frames per connection (phase A).
    pub sat_frames_per_conn: usize,
    /// Phase A is cut into this many equal segments per connection;
    /// saturation is the median segment's rate.
    pub sat_segments: usize,
    /// Open-loop rungs r1..r4 (phase B).
    pub rungs: [Rung; 4],
    /// Windows the headline rung (r2) is cut into for `p99_us` (each
    /// needs 1000 frames for a p99 with ten samples beyond it).
    pub p99_windows: usize,
    /// A rung fails when its p99 exceeds this.
    pub latency_limit_us: f64,
    /// A rung fails when the generator ends this share of the rung's
    /// scheduled duration behind.
    pub max_behind_share: f64,
    /// Leading queries answered through engine, TCP and HTTP alike for
    /// the digest cross-check.
    pub check_queries: usize,
    /// Traced run: closed-loop 1-query frames on one connection.
    pub frame1_frames: usize,
    /// Traced run: closed-loop 512-query frames per connection.
    pub frame512_frames_per_conn: usize,
    /// Traced run: queries replayed through `cellload`'s own drivers.
    pub replay_queries: usize,
}

impl ServePlan {
    /// The plan for a run length.
    ///
    /// The four rates are ≈30/50/70/90 % of the closed-loop saturation
    /// the seed commit reaches on the baseline machine (≈3.9k
    /// 64-query frames/s), frozen as constants; `latency_limit_us` sits
    /// ≥30 % above the p99 the seed shows at r3 and below what it
    /// shows once a rung saturates.
    pub fn new(seconds: u64, smoke: bool) -> ServePlan {
        let rates = [1200.0, 2000.0, 2800.0, 3600.0];
        // Seconds held per rung at --seconds 10; r2 is the headline
        // rung and gets the most samples.
        let hold = [1.0, 5.0, 1.0, 1.0];
        let scale = if smoke {
            0.02
        } else {
            seconds as f64 / CALIBRATED_SECONDS as f64
        };
        let rung = |i: usize| Rung {
            frames_per_s: rates[i],
            frames: ((rates[i] * hold[i] * scale) as usize).max(40),
        };
        ServePlan {
            queries: if smoke { 20_000 } else { 1_000_000 },
            sat_frames_per_conn: if smoke {
                100
            } else {
                scaled(6_000, seconds, 500)
            },
            sat_segments: 24,
            rungs: [rung(0), rung(1), rung(2), rung(3)],
            p99_windows: 10,
            latency_limit_us: 5_000.0,
            max_behind_share: 0.05,
            check_queries: if smoke { 2_048 } else { 32_768 },
            frame1_frames: if smoke { 50 } else { 2_000 },
            frame512_frames_per_conn: if smoke { 10 } else { 300 },
            replay_queries: if smoke { 6_400 } else { 256_000 },
        }
    }

    /// The counts, for the record.
    pub fn to_json(&self) -> Json {
        obj! {
            "queries" => self.queries,
            "frame" => FRAME,
            "connections" => CONNECTIONS,
            "sat_frames_per_conn" => self.sat_frames_per_conn,
            "sat_segments" => self.sat_segments,
            "rung_frames_per_s" => Json::Arr(self.rungs.iter().map(|r| Json::from(r.frames_per_s)).collect()),
            "rung_frames" => Json::Arr(self.rungs.iter().map(|r| Json::from(r.frames)).collect()),
            "p99_windows" => self.p99_windows,
            "latency_limit_us" => self.latency_limit_us,
            "max_behind_share" => self.max_behind_share,
            "check_queries" => self.check_queries,
            "frame1_frames" => self.frame1_frames,
            "frame512_frames_per_conn" => self.frame512_frames_per_conn,
            "replay_queries" => self.replay_queries,
            "setup_reps" => SETUP_REPS,
        }
    }
}

/// Counts of `refresh`.
#[derive(Clone, Copy, Debug)]
pub struct RefreshPlan {
    /// Times the whole ingest is run; the rate is events over the median run.
    pub ingest_reps: usize,
    /// Epochs the streaming ingest slices the month into.
    pub ingest_epochs: u32,
    /// Ingest shards.
    pub ingest_shards: u32,
    /// IPv4 /24 blocks of the churn world.
    pub churn_v4: u32,
    /// IPv6 /48 blocks of the churn world.
    pub churn_v6: u32,
    /// ASes of the churn world.
    pub churn_ases: u32,
    /// Blocks mutated per epoch, per mille.
    pub churn_per_mille: u32,
    /// Refresh epochs measured (epoch 1 is the unmeasured base).
    pub epochs: u64,
}

impl RefreshPlan {
    /// The plan for a run length.
    pub fn new(seconds: u64, smoke: bool) -> RefreshPlan {
        if smoke {
            return RefreshPlan {
                ingest_reps: 2,
                ingest_epochs: 2,
                ingest_shards: 2,
                churn_v4: 3_000,
                churn_v6: 600,
                churn_ases: 90,
                churn_per_mille: 15,
                epochs: 4,
            };
        }
        RefreshPlan {
            ingest_reps: 3,
            ingest_epochs: 4,
            ingest_shards: 2,
            churn_v4: 120_000,
            churn_v6: 24_000,
            churn_ases: 1_200,
            churn_per_mille: 15,
            epochs: scaled(24, seconds, 12) as u64,
        }
    }

    /// The world the study and the ingest run on: the demo world, or
    /// the mini world under `--smoke`.
    pub fn study_world(&self, seed: u64, smoke: bool) -> WorldConfig {
        if smoke {
            WorldConfig::mini()
        } else {
            WorldConfig::demo()
        }
        .with_seed(seed)
    }

    /// The counts, for the record.
    pub fn to_json(&self) -> Json {
        obj! {
            "study_reps" => SETUP_REPS,
            "ingest_reps" => self.ingest_reps,
            "ingest_epochs" => u64::from(self.ingest_epochs),
            "ingest_shards" => u64::from(self.ingest_shards),
            "churn_v4" => u64::from(self.churn_v4),
            "churn_v6" => u64::from(self.churn_v6),
            "churn_ases" => u64::from(self.churn_ases),
            "churn_per_mille" => u64::from(self.churn_per_mille),
            "epochs" => self.epochs,
        }
    }
}
