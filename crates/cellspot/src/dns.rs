//! DNS resolver analysis (§6.3): resolver sharing in mixed networks
//! (Fig. 9), distant shared resolvers, and public DNS usage (Fig. 10).

use std::collections::{HashMap, HashSet};

use netaddr::Asn;

use dnssim::{DnsSim, PublicDns, ResolverKind, PUBLIC_DNS_SERVICES};

use crate::classify::Classification;
use crate::index::BlockIndex;
use crate::stats::Ecdf;

/// Demand attributed to one resolver, split by the classifier's labels.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResolverDemand {
    /// DU from cellular-labeled client blocks.
    pub cell_du: f64,
    /// DU from non-cellular client blocks.
    pub fixed_du: f64,
}

impl ResolverDemand {
    /// Fraction of this resolver's demand that is cellular.
    pub fn cellular_fraction(&self) -> f64 {
        let total = self.cell_du + self.fixed_du;
        if total > 0.0 {
            self.cell_du / total
        } else {
            0.0
        }
    }
}

/// §6.3 analysis output.
#[derive(Clone, Debug, PartialEq)]
pub struct DnsAnalysis {
    /// Per-resolver demand attribution (indexed like `DnsSim::resolvers`).
    pub per_resolver: Vec<ResolverDemand>,
}

impl DnsAnalysis {
    /// Join resolver affinities with the demand dataset and the
    /// classification: each affinity row contributes
    /// `weight × DU(block)` to its resolver, bucketed by the block's
    /// classified access type — exactly the paper's method of combining
    /// client-to-resolver associations with the two datasets.
    pub fn build(dns: &DnsSim, index: &BlockIndex, classification: &Classification) -> Self {
        let mut per_resolver = vec![ResolverDemand::default(); dns.resolvers.len()];
        for a in &dns.affinities {
            let Some(obs) = index.get(a.block) else {
                continue;
            };
            let du = obs.du * a.weight as f64;
            if du <= 0.0 {
                continue;
            }
            let r = &mut per_resolver[a.resolver as usize];
            if classification.is_cellular(a.block) {
                r.cell_du += du;
            } else {
                r.fixed_du += du;
            }
        }
        DnsAnalysis { per_resolver }
    }

    /// Fig. 9: CDF of the cellular demand fraction across the operator
    /// resolvers of the given (mixed) ASes. Only resolvers with any
    /// demand participate.
    pub fn mixed_resolver_cdf(&self, dns: &DnsSim, mixed_asns: &[Asn]) -> Ecdf {
        let mixed: HashSet<Asn> = mixed_asns.iter().copied().collect();
        Ecdf::new(
            dns.resolvers
                .iter()
                .filter(|r| !matches!(r.kind, ResolverKind::Public(_)) && mixed.contains(&r.asn))
                .map(|r| &self.per_resolver[r.id as usize])
                .filter(|d| d.cell_du + d.fixed_du > 0.0)
                .map(|d| d.cellular_fraction()),
        )
    }

    /// Fraction of in-scope resolvers that serve *both* populations (the
    /// paper: nearly 60% of resolvers in mixed ASes are shared). A
    /// resolver counts as shared when each side carries at least
    /// `min_side_fraction` of its demand.
    pub fn shared_fraction(&self, dns: &DnsSim, mixed_asns: &[Asn], min_side_fraction: f64) -> f64 {
        let mixed: HashSet<Asn> = mixed_asns.iter().copied().collect();
        let mut total = 0usize;
        let mut shared = 0usize;
        for r in &dns.resolvers {
            if matches!(r.kind, ResolverKind::Public(_)) || !mixed.contains(&r.asn) {
                continue;
            }
            let d = &self.per_resolver[r.id as usize];
            if d.cell_du + d.fixed_du <= 0.0 {
                continue;
            }
            total += 1;
            let f = d.cellular_fraction();
            if f >= min_side_fraction && f <= 1.0 - min_side_fraction {
                shared += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            shared as f64 / total as f64
        }
    }

    /// Public DNS usage per AS: for each AS with any attributed demand,
    /// the fraction resolved through each public service (Fig. 10's bars)
    /// keyed by the *client* AS.
    pub fn public_dns_by_as(
        &self,
        dns: &DnsSim,
        index: &BlockIndex,
        classification: &Classification,
        cellular_only: bool,
    ) -> HashMap<Asn, PublicDnsUsage> {
        // Attribute per client-AS: total weighted demand and the public
        // share per service.
        let mut map: HashMap<Asn, PublicDnsUsage> = HashMap::new();
        for a in &dns.affinities {
            let Some(obs) = index.get(a.block) else {
                continue;
            };
            if cellular_only && !classification.is_cellular(a.block) {
                continue;
            }
            let du = obs.du * a.weight as f64;
            if du <= 0.0 {
                continue;
            }
            let entry = map.entry(obs.asn).or_default();
            entry.total_du += du;
            if let ResolverKind::Public(svc) = dns.resolvers[a.resolver as usize].kind {
                entry.per_service[svc_index(svc)] += du;
            }
        }
        map
    }

    /// Distant shared resolvers (the paper's Brazilian case): resolvers
    /// in the given ASes whose cellular clients sit at least
    /// `distance_ratio` times farther than their fixed clients, while
    /// serving a meaningful share of both.
    pub fn distant_shared_resolvers(
        &self,
        dns: &DnsSim,
        asns: &[Asn],
        distance_ratio: f64,
    ) -> Vec<u32> {
        let scope: HashSet<Asn> = asns.iter().copied().collect();
        dns.resolvers
            .iter()
            .filter(|r| scope.contains(&r.asn) && r.kind == ResolverKind::Shared)
            .filter(|r| r.dist_cell_mi > r.dist_fixed_mi * distance_ratio)
            .filter(|r| {
                let d = &self.per_resolver[r.id as usize];
                d.cell_du > 0.0 && d.fixed_du > 0.0
            })
            .map(|r| r.id)
            .collect()
    }
}

/// Per-AS public DNS usage.
#[derive(Clone, Copy, Debug, Default)]
pub struct PublicDnsUsage {
    /// Total attributed demand, DU.
    pub total_du: f64,
    /// Demand through each public service, indexed like
    /// [`PUBLIC_DNS_SERVICES`].
    pub per_service: [f64; 3],
}

impl PublicDnsUsage {
    /// Fraction through a given service.
    pub fn fraction(&self, svc: PublicDns) -> f64 {
        if self.total_du > 0.0 {
            self.per_service[svc_index(svc)] / self.total_du
        } else {
            0.0
        }
    }

    /// Fraction through any public service.
    pub fn total_fraction(&self) -> f64 {
        if self.total_du > 0.0 {
            self.per_service.iter().sum::<f64>() / self.total_du
        } else {
            0.0
        }
    }
}

fn svc_index(svc: PublicDns) -> usize {
    PUBLIC_DNS_SERVICES
        .iter()
        .position(|s| *s == svc)
        .expect("service list is exhaustive")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolver_demand_fraction() {
        let d = ResolverDemand {
            cell_du: 25.0,
            fixed_du: 75.0,
        };
        assert!((d.cellular_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(ResolverDemand::default().cellular_fraction(), 0.0);
    }

    #[test]
    fn public_usage_fractions() {
        let mut u = PublicDnsUsage {
            total_du: 100.0,
            per_service: [40.0, 10.0, 5.0],
        };
        assert!((u.fraction(PublicDns::GoogleDns) - 0.4).abs() < 1e-12);
        assert!((u.total_fraction() - 0.55).abs() < 1e-12);
        u.total_du = 0.0;
        assert_eq!(u.total_fraction(), 0.0);
    }
}
