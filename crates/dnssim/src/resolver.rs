use netaddr::{Asn, BlockId};
use worldgen::sampling::{rng_for, uniform, weighted_choice, GenRng};
use worldgen::{OperatorRole, World};

/// Uniform index helper on the seeded RNG type.
trait RngIdx {
    fn gen_range_usize(&mut self, n: usize) -> usize;
}

impl RngIdx for GenRng {
    fn gen_range_usize(&mut self, n: usize) -> usize {
        use rand::Rng;
        if n <= 1 {
            0
        } else {
            self.gen_range(0..n)
        }
    }
}

/// The public DNS services the paper measures (Fig. 10).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PublicDns {
    /// Google Public DNS (8.8.8.8).
    GoogleDns,
    /// OpenDNS.
    OpenDns,
    /// Level 3's open resolvers.
    Level3,
}

/// All public services, in Fig. 10's legend order.
pub const PUBLIC_DNS_SERVICES: [PublicDns; 3] =
    [PublicDns::GoogleDns, PublicDns::OpenDns, PublicDns::Level3];

impl PublicDns {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            PublicDns::GoogleDns => "GoogleDNS",
            PublicDns::OpenDns => "OpenDNS",
            PublicDns::Level3 => "Level 3",
        }
    }
}

/// What population a resolver serves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResolverKind {
    /// Operator resolver serving both cellular and fixed clients.
    Shared,
    /// Operator resolver dedicated to cellular clients.
    CellularOnly,
    /// Operator resolver dedicated to fixed-line clients.
    FixedOnly,
    /// A public DNS service's anycast front.
    Public(PublicDns),
}

/// One recursive resolver.
#[derive(Clone, Copy, Debug)]
pub struct Resolver {
    /// Dense id, index into [`DnsSim::resolvers`].
    pub id: u32,
    /// Hosting AS (the operator's, or a synthetic AS for public services).
    pub asn: Asn,
    /// Serving population.
    pub kind: ResolverKind,
    /// Great-circle distance from the resolver to the centroid of its
    /// *cellular* clients, miles. The paper's Brazilian mixed operator
    /// backhauls Fortaleza's cellular clients to São Paulo resolvers —
    /// 1,470 miles — while fixed clients sit nearby.
    pub dist_cell_mi: f64,
    /// Distance to the centroid of its fixed-line clients, miles.
    pub dist_fixed_mi: f64,
}

/// A weighted client-block → resolver association, the output of
/// end-user-mapping style log analysis.
#[derive(Clone, Copy, Debug)]
pub struct Affinity {
    /// Client block.
    pub block: BlockId,
    /// Resolver id.
    pub resolver: u32,
    /// Fraction of the block's DNS-driven demand through this resolver.
    pub weight: f32,
}

/// Generated resolver population and affinities.
#[derive(Clone, Debug, Default)]
pub struct DnsSim {
    /// All resolvers, indexed by id.
    pub resolvers: Vec<Resolver>,
    /// Block → resolver associations (multiple rows per block).
    pub affinities: Vec<Affinity>,
}

impl DnsSim {
    /// Resolver by id.
    pub fn resolver(&self, id: u32) -> &Resolver {
        &self.resolvers[id as usize]
    }
}

/// Generate resolver pools and client affinities for a world.
///
/// Per operator: `n_resolvers` split into shared / cellular-only /
/// fixed-only according to the operator's sharing fraction; each client
/// block splits its weight between an in-operator resolver of a matching
/// kind and, with the operator's public-DNS fraction, one of the public
/// services. The Brazilian-style distant-resolver case marks the shared
/// pool with the paper's 1,470-mile cellular backhaul.
pub fn generate_dns(world: &World) -> DnsSim {
    let mut sim = DnsSim::default();

    // Public resolver fronts first (one per service).
    for (i, svc) in PUBLIC_DNS_SERVICES.iter().enumerate() {
        sim.resolvers.push(Resolver {
            id: i as u32,
            asn: Asn(u32::MAX - i as u32),
            kind: ResolverKind::Public(*svc),
            // Anycast fronts are moderately distant from everyone.
            dist_cell_mi: 400.0,
            dist_fixed_mi: 400.0,
        });
    }

    // Operator pools: remember each operator's resolver id range.
    let mut op_pools: Vec<(Asn, u32, u32)> = Vec::with_capacity(world.operators.ops.len());
    for (oi, op) in world.operators.ops.iter().enumerate() {
        let mut rng = rng_for(world.config.seed ^ 0xD5_0000_0000, oi as u64);
        let n = op.n_resolvers.max(1);
        // Single-service operators (dedicated cellular, fixed-only,
        // proxies) serve every host in the AS from one pool; only mixed
        // operators maintain population-specific resolvers. At least one
        // resolver in a mixed AS is shared so every client has a home.
        let shared = if op.kind == asdb::AsKind::MixedAccess {
            ((n as f64 * op.resolver_shared_fraction).round() as u32).clamp(1, n)
        } else {
            n
        };
        // The paper finds the non-shared remainder split roughly evenly
        // between cellular-only and fixed-only pools.
        let rest = n - shared;
        let cell_only = rest / 2;
        let first = sim.resolvers.len() as u32;
        for k in 0..n {
            let kind = if k < shared {
                ResolverKind::Shared
            } else if k < shared + cell_only {
                ResolverKind::CellularOnly
            } else {
                ResolverKind::FixedOnly
            };
            let (dist_cell, dist_fixed) =
                if op.distant_cell_resolvers && kind == ResolverKind::Shared {
                    (1_470.0, uniform(&mut rng, 10.0, 60.0))
                } else {
                    (
                        uniform(&mut rng, 20.0, 300.0),
                        uniform(&mut rng, 10.0, 200.0),
                    )
                };
            sim.resolvers.push(Resolver {
                id: first + k,
                asn: op.asn,
                kind,
                dist_cell_mi: dist_cell,
                dist_fixed_mi: dist_fixed,
            });
        }
        op_pools.push((op.asn, first, n));
    }

    // Affinities: each demand-bearing block picks resolvers.
    let pool_of: std::collections::HashMap<Asn, (u32, u32)> = op_pools
        .iter()
        .map(|(asn, first, n)| (*asn, (*first, *n)))
        .collect();
    let op_of: std::collections::HashMap<Asn, &worldgen::OperatorInfo> =
        world.operators.ops.iter().map(|o| (o.asn, o)).collect();

    for (bi, b) in world.blocks.records.iter().enumerate() {
        if b.demand_weight <= 0.0 {
            continue;
        }
        let op = op_of[&b.asn];
        if op.role == OperatorRole::Filler {
            continue; // negligible demand, no DNS analysis value
        }
        let mut rng = rng_for(world.config.seed ^ 0xD5_0001_0000, bi as u64);
        let (first, n) = pool_of[&b.asn];
        let is_cell = b.access.is_cellular();

        // Candidate in-operator resolvers of a compatible kind.
        let mut candidates: Vec<u32> = (first..first + n)
            .filter(|&id| match sim.resolvers[id as usize].kind {
                ResolverKind::Shared => true,
                ResolverKind::CellularOnly => is_cell,
                ResolverKind::FixedOnly => !is_cell,
                ResolverKind::Public(_) => false,
            })
            .collect();
        if candidates.is_empty() {
            candidates = (first..first + n).collect();
        }

        let public_w = op.public_dns_fraction;
        let op_w = 1.0 - public_w;
        if op_w > 0.0 {
            // A block's clients land on several of the operator's
            // resolvers (a CGN /24 fronts thousands of devices), with a
            // primary-heavy split. Start at a rotating offset so demand
            // spreads across the whole pool rather than pinning every
            // block to the same resolver.
            let k = candidates.len().min(4);
            let start = rng.gen_range_usize(candidates.len());
            let split: &[f64] = match k {
                1 => &[1.0],
                2 => &[0.7, 0.3],
                3 => &[0.6, 0.25, 0.15],
                _ => &[0.5, 0.25, 0.15, 0.10],
            };
            for (j, share) in split.iter().enumerate() {
                let resolver = candidates[(start + j) % candidates.len()];
                sim.affinities.push(Affinity {
                    block: b.block,
                    resolver,
                    weight: (op_w * share) as f32,
                });
            }
        }
        if public_w > 0.0 {
            // Public service preference: Google dominates, then OpenDNS.
            let svc_weights = [0.62, 0.24, 0.14];
            let svc = weighted_choice(&mut rng, &svc_weights).expect("non-empty");
            sim.affinities.push(Affinity {
                block: b.block,
                resolver: svc as u32,
                weight: public_w as f32,
            });
        }
    }

    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::WorldConfig;

    fn sim() -> (World, DnsSim) {
        let world = World::generate(WorldConfig::mini());
        let dns = generate_dns(&world);
        (world, dns)
    }

    #[test]
    fn public_fronts_are_first_three() {
        let (_, dns) = sim();
        for (i, svc) in PUBLIC_DNS_SERVICES.iter().enumerate() {
            assert_eq!(dns.resolvers[i].kind, ResolverKind::Public(*svc));
            assert_eq!(dns.resolvers[i].id, i as u32);
        }
    }

    #[test]
    fn affinity_weights_sum_to_one_per_block() {
        let (_, dns) = sim();
        let mut per_block: std::collections::HashMap<BlockId, f64> = Default::default();
        for a in &dns.affinities {
            *per_block.entry(a.block).or_default() += a.weight as f64;
        }
        assert!(!per_block.is_empty());
        for (block, w) in per_block {
            assert!((w - 1.0).abs() < 1e-5, "{block}: weights sum to {w}");
        }
    }

    #[test]
    fn kind_compatibility_is_respected() {
        let (world, dns) = sim();
        let truth: std::collections::HashMap<_, _> = world
            .blocks
            .records
            .iter()
            .map(|r| (r.block, r.access))
            .collect();
        for a in &dns.affinities {
            let r = dns.resolver(a.resolver);
            match r.kind {
                ResolverKind::CellularOnly => {
                    assert!(truth[&a.block].is_cellular(), "fixed block on cell-only")
                }
                ResolverKind::FixedOnly => {
                    assert!(!truth[&a.block].is_cellular(), "cell block on fixed-only")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn mixed_operators_have_shared_pools() {
        let (world, dns) = sim();
        let mixed_asns: std::collections::HashSet<Asn> = world
            .operators
            .ops
            .iter()
            .filter(|o| o.kind == asdb::AsKind::MixedAccess && o.n_resolvers >= 3)
            .map(|o| o.asn)
            .collect();
        let shared = dns
            .resolvers
            .iter()
            .filter(|r| mixed_asns.contains(&r.asn) && r.kind == ResolverKind::Shared)
            .count();
        assert!(
            shared > 50,
            "mixed ASes should run shared resolvers: {shared}"
        );
    }

    #[test]
    fn brazil_case_has_distant_cell_resolvers() {
        let (world, dns) = sim();
        let br = world.operators.brazil_mixed;
        let distant: Vec<_> = dns
            .resolvers
            .iter()
            .filter(|r| r.asn == br && r.kind == ResolverKind::Shared)
            .collect();
        assert!(!distant.is_empty());
        for r in &distant {
            assert!((r.dist_cell_mi - 1_470.0).abs() < 1e-9);
            assert!(r.dist_fixed_mi < 100.0);
        }
    }

    #[test]
    fn public_usage_tracks_operator_fraction() {
        let (world, dns) = sim();
        // Aggregate public weight per AS and compare against the profile.
        let mut pub_w: std::collections::HashMap<Asn, f64> = Default::default();
        let mut tot_w: std::collections::HashMap<Asn, f64> = Default::default();
        let asn_of: std::collections::HashMap<_, _> = world
            .blocks
            .records
            .iter()
            .map(|r| (r.block, r.asn))
            .collect();
        for a in &dns.affinities {
            let asn = asn_of[&a.block];
            *tot_w.entry(asn).or_default() += a.weight as f64;
            if matches!(dns.resolver(a.resolver).kind, ResolverKind::Public(_)) {
                *pub_w.entry(asn).or_default() += a.weight as f64;
            }
        }
        let mut checked = 0;
        for op in &world.operators.ops {
            let tot = tot_w.get(&op.asn).copied().unwrap_or(0.0);
            if tot > 20.0 {
                let frac = pub_w.get(&op.asn).copied().unwrap_or(0.0) / tot;
                assert!(
                    (frac - op.public_dns_fraction).abs() < 0.08,
                    "{}: public fraction {frac:.3} vs profile {:.3}",
                    op.asn,
                    op.public_dns_fraction
                );
                checked += 1;
            }
        }
        assert!(checked > 10, "checked only {checked} operators");
    }
}
