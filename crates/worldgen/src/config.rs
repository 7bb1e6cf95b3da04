//! World generation configuration and presets.

/// Tunable knobs for the synthetic world.
///
/// Two presets matter in practice: [`WorldConfig::paper`] reproduces the
/// study's magnitudes (≈6.8M active IPv4 /24 blocks, ≈350k cellular) and is
/// what the experiment harness runs; [`WorldConfig::demo`] scales block
/// counts down ~50× for examples and integration tests while keeping the
/// AS-level structure (operator counts, mixing, filter-rule victims) at
/// full size so AS-level experiments remain meaningful.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Master seed; every random quantity derives from it.
    pub seed: u64,
    /// Multiplier on per-AS block counts (1.0 = paper magnitudes).
    pub block_scale: f64,
    /// Multiplier on the *non-candidate* AS population (fixed-only ISPs per
    /// country are never scaled below their structural minimum; this mostly
    /// controls filler content/enterprise ASes).
    pub filler_as_scale: f64,
    /// Total ASes observed by the platform at paper scale (paper: 46,936).
    pub total_ases_target: u64,
    /// Global NetInfo-enabled beacon hit budget for the BEACON month.
    /// The paper reports "several hundreds of millions"; 300M at scale 1.
    /// Scaled presets reduce this proportionally so per-block hit counts
    /// stay realistic.
    pub netinfo_hits_total: f64,
    /// Tiny cellular operators whose whole-AS cellular demand lands below
    /// 0.1 DU — the victims of AS-filter rule 1 (paper: 493).
    pub tiny_cell_ases: u32,
    /// Operators with real demand but almost no RUM visibility (non-web
    /// traffic) — victims of rule 2's < 300-hit threshold (paper: 53).
    pub low_beacon_ases: u32,
    /// Cloud/proxy ASes whose blocks carry cellular NetInfo labels —
    /// victims of rule 3's CAIDA-class filter (paper: 49).
    pub proxy_ases: u32,
    /// Per-operator tethering/hotspot rate range: the probability that a
    /// NetInfo hit from a genuinely cellular block reports `wifi` because
    /// the measuring device sits behind a phone's hotspot (§3.1).
    pub tether_rate_range: (f64, f64),
    /// Probability that a hit from a fixed-line block reports `cellular`
    /// (interface switch between IP capture and API poll — §3.1 calls this
    /// the rarer case).
    pub fixed_cell_noise: f64,
    /// Cellular-label rate range on proxy-front blocks in cloud ASes.
    pub proxy_cell_rate_range: (f64, f64),
    /// Fraction of demand-weighted activity also visible to RUM beacons
    /// (BEACON captures 92% of platform demand; the remaining demand-only
    /// blocks have JS-free clients).
    pub beacon_demand_coverage: f64,
    /// Extra IPv4 blocks present in DEMAND but absent from BEACON at paper
    /// scale (Table 2: 6.8M vs 4.7M).
    pub demand_only_blocks24: u64,
    /// Fraction of IPv6 BEACON blocks that also appear in the one-week
    /// DEMAND snapshot (Table 2: 909K of 1.8M ≈ 0.5; the rest are
    /// ephemeral v6 prefixes seen only across the month).
    pub v6_demand_coverage: f64,
    /// Build the three validation carriers' ground-truth lists.
    pub with_carriers: bool,
    /// Share of global demand routed through IPv6 blocks.
    pub v6_demand_share: f64,
}

impl WorldConfig {
    /// Paper-scale world: ≈6.8M active /24, ≈1.8M /48, 46,936 ASes.
    pub fn paper() -> Self {
        WorldConfig {
            seed: 0xCE11_5B07,
            block_scale: 1.0,
            filler_as_scale: 1.0,
            total_ases_target: 46_936,
            netinfo_hits_total: 300.0e6,
            tiny_cell_ases: 493,
            low_beacon_ases: 53,
            proxy_ases: 49,
            tether_rate_range: (0.04, 0.30),
            fixed_cell_noise: 0.0003,
            proxy_cell_rate_range: (0.55, 0.95),
            beacon_demand_coverage: 0.92,
            demand_only_blocks24: 2_000_000,
            v6_demand_coverage: 0.50,
            with_carriers: true,
            v6_demand_share: 0.07,
        }
    }

    /// Demo-scale world: block counts ÷50, full AS structure. Generates in
    /// well under a second; used by examples and integration tests.
    pub fn demo() -> Self {
        WorldConfig {
            block_scale: 0.02,
            filler_as_scale: 0.02,
            netinfo_hits_total: 6.0e6,
            demand_only_blocks24: 40_000,
            ..Self::paper()
        }
    }

    /// Miniature world for unit tests: block counts ÷500.
    pub fn mini() -> Self {
        WorldConfig {
            block_scale: 0.002,
            filler_as_scale: 0.002,
            netinfo_hits_total: 0.6e6,
            demand_only_blocks24: 4_000,
            tiny_cell_ases: 60,
            low_beacon_ases: 10,
            proxy_ases: 10,
            ..Self::paper()
        }
    }

    /// Override the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the block scale (builder style).
    pub fn with_block_scale(mut self, scale: f64) -> Self {
        self.block_scale = scale;
        self
    }

    /// The beacon-hit threshold for AS-filter rule 2, scaled consistently
    /// with this world's hit budget (paper: 300 hits at a 300M budget).
    pub fn scaled_min_beacon_hits(&self) -> f64 {
        300.0 * (self.netinfo_hits_total / 300.0e6)
    }

    /// Validate knob ranges; generation panics early on nonsense configs.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.block_scale > 0.0 && self.block_scale <= 4.0) {
            return Err(format!("block_scale {} out of (0, 4]", self.block_scale));
        }
        if self.netinfo_hits_total <= 0.0 {
            return Err("netinfo_hits_total must be positive".into());
        }
        for (name, (lo, hi)) in [
            ("tether_rate_range", self.tether_rate_range),
            ("proxy_cell_rate_range", self.proxy_cell_rate_range),
        ] {
            if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
                return Err(format!("{name} {:?} is not a sub-range of [0,1]", (lo, hi)));
            }
        }
        if !(0.0..=0.2).contains(&self.fixed_cell_noise) {
            return Err(format!(
                "fixed_cell_noise {} out of [0, 0.2]",
                self.fixed_cell_noise
            ));
        }
        if !(0.0..=1.0).contains(&self.beacon_demand_coverage)
            || !(0.0..=1.0).contains(&self.v6_demand_coverage)
            || !(0.0..=1.0).contains(&self.v6_demand_share)
        {
            return Err("coverage/share knobs must lie in [0,1]".into());
        }
        Ok(())
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self::demo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        WorldConfig::paper().validate().unwrap();
        WorldConfig::demo().validate().unwrap();
        WorldConfig::mini().validate().unwrap();
    }

    #[test]
    fn builders_override() {
        let c = WorldConfig::demo().with_seed(7).with_block_scale(0.5);
        assert_eq!(c.seed, 7);
        assert!((c.block_scale - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_hits_threshold_scales_with_budget() {
        assert!((WorldConfig::paper().scaled_min_beacon_hits() - 300.0).abs() < 1e-9);
        assert!((WorldConfig::demo().scaled_min_beacon_hits() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let mut c = WorldConfig::demo();
        c.block_scale = 0.0;
        assert!(c.validate().is_err());
        let mut c = WorldConfig::demo();
        c.tether_rate_range = (0.5, 0.2);
        assert!(c.validate().is_err());
        let mut c = WorldConfig::demo();
        c.fixed_cell_noise = 0.5;
        assert!(c.validate().is_err());
    }
}
