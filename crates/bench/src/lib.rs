//! Shared setup for the `repro` harness: the scale argument. World,
//! datasets, DNS and study come from `cellspotting::Pipeline` in one
//! call; the measured workloads live in `benchmarks/cellbench`.

use worldgen::WorldConfig;

/// Resolve a scale argument (`mini`, `demo`, `paper`, or a float block
/// scale) into a world config.
pub fn config_for_scale(scale: &str) -> Result<WorldConfig, String> {
    match scale {
        "mini" => Ok(WorldConfig::mini()),
        "demo" => Ok(WorldConfig::demo()),
        "paper" => Ok(WorldConfig::paper()),
        other => {
            let s: f64 = other
                .parse()
                .map_err(|_| format!("unknown scale {other:?} (use mini|demo|paper|<float>)"))?;
            if !(s > 0.0 && s <= 4.0) {
                return Err(format!("scale {s} out of (0, 4]"));
            }
            let mut cfg = WorldConfig::paper();
            cfg.block_scale = s;
            cfg.filler_as_scale = s.min(1.0);
            cfg.netinfo_hits_total = 300.0e6 * s;
            cfg.demand_only_blocks24 = (2_000_000.0 * s) as u64;
            Ok(cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert!(config_for_scale("mini").is_ok());
        assert!(config_for_scale("demo").is_ok());
        assert!(config_for_scale("paper").is_ok());
        let c = config_for_scale("0.1").unwrap();
        assert!((c.block_scale - 0.1).abs() < 1e-12);
        assert!((c.netinfo_hits_total - 30.0e6).abs() < 1.0);
        assert!(config_for_scale("nope").is_err());
        assert!(config_for_scale("9.5").is_err());
        assert!(config_for_scale("-1").is_err());
    }
}
