//! WL-LSMS process topology (paper Figures 1 and 2): one Wang–Landau
//! master, `M` LSMS instances of `N` ranks each; rank 0 of each instance is
//! the *privileged* process relaying between the WL master and the local
//! interaction zone (LIZ).
//!
//! The paper's experiments use 16 iron atoms per LSMS instance with one
//! rank per atom, so total ranks sweep 33, 49, …, 337 = `1 + 16·M`,
//! `M = 2…21`.

use mpisim::Comm;
use netsim::RankCtx;

/// Number of atoms (and ranks) per LSMS instance in the paper's runs.
pub const ATOMS_PER_LSMS: usize = 16;

/// The process layout of a WL-LSMS job.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Ranks per LSMS instance.
    pub ranks_per_lsms: usize,
    /// Number of LSMS instances.
    pub instances: usize,
}

impl Topology {
    /// Layout for a total rank count of `1 + instances * ranks_per_lsms`.
    pub fn new(instances: usize, ranks_per_lsms: usize) -> Self {
        assert!(instances > 0 && ranks_per_lsms > 0);
        Topology {
            ranks_per_lsms,
            instances,
        }
    }

    /// The paper's sweep point with `m` LSMS instances of 16 ranks.
    pub fn paper(m: usize) -> Self {
        Topology::new(m, ATOMS_PER_LSMS)
    }

    /// The paper's x-axis: total ranks for `m = 2..=21`.
    pub fn paper_sweep() -> Vec<Topology> {
        (2..=21).map(Topology::paper).collect()
    }

    /// Total ranks (WL master + instances).
    pub fn total_ranks(&self) -> usize {
        1 + self.instances * self.ranks_per_lsms
    }

    /// The WL master's global rank.
    pub fn wl_rank(&self) -> usize {
        0
    }

    /// Global rank of the privileged process of `instance`.
    pub fn privileged_rank(&self, instance: usize) -> usize {
        1 + instance * self.ranks_per_lsms
    }

    /// Global ranks of `instance`'s members, privileged first.
    pub fn instance_ranks(&self, instance: usize) -> Vec<usize> {
        let base = self.privileged_rank(instance);
        (base..base + self.ranks_per_lsms).collect()
    }

    /// Which instance a global rank belongs to (`None` for the WL master).
    pub fn instance_of(&self, rank: usize) -> Option<usize> {
        if rank == 0 {
            None
        } else {
            let idx = (rank - 1) / self.ranks_per_lsms;
            (idx < self.instances).then_some(idx)
        }
    }

    /// Whether `rank` is a privileged process.
    pub fn is_privileged(&self, rank: usize) -> bool {
        rank != 0 && (rank - 1).is_multiple_of(self.ranks_per_lsms)
    }

    /// Build this rank's communicators: the world plus (for LSMS members)
    /// the instance communicator with local rank 0 = privileged.
    pub fn build_comms(&self, ctx: &RankCtx) -> Comms {
        let world = Comm::world(ctx);
        assert_eq!(
            world.size(),
            self.total_ranks(),
            "simulation rank count does not match topology"
        );
        let my_instance = self.instance_of(ctx.rank());
        let lsms = my_instance.map(|i| {
            let members = self.instance_ranks(i);
            // Communicator ids must be unique per instance.
            world.subset(ctx, 1 + i as i32, &members)
        });
        Comms {
            world,
            lsms,
            instance: my_instance,
        }
    }
}

/// The communicators visible to one rank.
#[derive(Clone, Debug)]
pub struct Comms {
    /// All ranks.
    pub world: Comm,
    /// This rank's LSMS instance communicator (None on the WL master).
    pub lsms: Option<Comm>,
    /// This rank's instance index (None on the WL master).
    pub instance: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{run, SimConfig};

    #[test]
    fn paper_sweep_matches_figure_axis() {
        let sweep = Topology::paper_sweep();
        assert_eq!(sweep.len(), 20);
        let totals: Vec<usize> = sweep.iter().map(|t| t.total_ranks()).collect();
        assert_eq!(totals[0], 33);
        assert_eq!(totals[1], 49);
        assert_eq!(*totals.last().unwrap(), 337);
        assert!(totals.windows(2).all(|w| w[1] - w[0] == 16));
    }

    #[test]
    fn rank_mapping() {
        let t = Topology::paper(3); // 49 ranks
        assert_eq!(t.total_ranks(), 49);
        assert_eq!(t.wl_rank(), 0);
        assert_eq!(t.privileged_rank(0), 1);
        assert_eq!(t.privileged_rank(2), 33);
        assert_eq!(t.instance_of(0), None);
        assert_eq!(t.instance_of(1), Some(0));
        assert_eq!(t.instance_of(16), Some(0));
        assert_eq!(t.instance_of(17), Some(1));
        assert!(t.is_privileged(1));
        assert!(t.is_privileged(17));
        assert!(!t.is_privileged(2));
        assert_eq!(t.instance_ranks(1), (17..33).collect::<Vec<_>>());
    }

    #[test]
    fn comms_build_and_route() {
        let topo = Topology::new(2, 4); // 9 ranks
        let res = run(SimConfig::new(topo.total_ranks()), move |ctx| {
            let comms = topo.build_comms(ctx);
            match comms.lsms {
                None => {
                    assert_eq!(ctx.rank(), 0);
                    (None, None)
                }
                Some(lsms) => {
                    let local = lsms.rank(ctx);
                    // Privileged has local rank 0.
                    if topo.is_privileged(ctx.rank()) {
                        assert_eq!(local, 0);
                    }
                    (comms.instance, Some(local))
                }
            }
        });
        assert_eq!(res.per_rank[0], (None, None));
        assert_eq!(res.per_rank[1], (Some(0), Some(0)));
        assert_eq!(res.per_rank[4], (Some(0), Some(3)));
        assert_eq!(res.per_rank[5], (Some(1), Some(0)));
        assert_eq!(res.per_rank[8], (Some(1), Some(3)));
    }
}
