//! Failure-domain-aware expert placement types.
//!
//! Lazarus-style elastic recovery treats every expert as an individually
//! placeable unit: a [`PlacementPlan`] assigns each expert of each MoE
//! layer to one *owning* shard group (a DP index, whose `tp · pp` ranks
//! jointly hold the expert's checkpoint duties) plus zero or more
//! *replica* groups chosen on distinct failure domains (physical nodes,
//! via [`ParallelTopology::node_of_global`]). When a node dies, ownership
//! migrates to the expert's first surviving replica — or, when every
//! replica died, to a deterministic surviving fallback — so checkpoint
//! selection and recovery keep following the experts through shrink and
//! expand without a respawn.
//!
//! This module holds the *types* (plan, errors, failure-domain queries);
//! the planner that constructs balanced, domain-spread plans and the
//! shrink/expand rebalance protocol live in the `moc-elastic` crate.

use crate::topology::ParallelTopology;
use moc_moe::ExpertId;
use std::collections::BTreeSet;
use std::fmt;

/// Error constructing or rebalancing a placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The replication factor was zero.
    ZeroReplication,
    /// The cluster has fewer failure domains than the requested
    /// replication factor: no plan can spread `replication` replicas of
    /// an expert over distinct domains.
    ReplicationExceedsDomains {
        /// Requested replicas per expert.
        replication: usize,
        /// Distinct failure domains (nodes hosting shard-group leaders).
        domains: usize,
    },
    /// A replica list referenced a shard group outside the topology.
    GroupOutOfRange {
        /// Offending group index.
        group: usize,
        /// Shard groups in the topology.
        groups: usize,
    },
    /// An expert had no replica at all.
    EmptyReplicaList {
        /// The expert without replicas.
        expert: ExpertId,
    },
    /// A shrink was asked for with no surviving shard group.
    NoSurvivors,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::ZeroReplication => {
                write!(f, "replication factor must be at least 1")
            }
            PlacementError::ReplicationExceedsDomains {
                replication,
                domains,
            } => write!(
                f,
                "replication factor {replication} cannot be hosted by {domains} failure domains"
            ),
            PlacementError::GroupOutOfRange { group, groups } => {
                write!(
                    f,
                    "shard group {group} outside topology with {groups} groups"
                )
            }
            PlacementError::EmptyReplicaList { expert } => {
                write!(f, "expert {expert:?} has no replica group")
            }
            PlacementError::NoSurvivors => {
                write!(f, "cannot shrink: no shard group survives")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// The failure domain (physical node) of a shard group: the node hosting
/// the group's leader rank (its `tp = pp = 0` member). Groups whose
/// `tp · pp` ranks span several nodes are charged to their leader's node
/// — a node death drags the whole group through recovery anyway, so the
/// leader's domain is the one that matters for replica spreading.
pub fn domain_of_group(topo: &ParallelTopology, group: usize) -> usize {
    assert!(group < topo.num_shard_groups(), "shard group out of range");
    topo.node_of_global(group * topo.tp() * topo.pp())
}

/// Number of distinct failure domains: how many nodes host at least one
/// shard-group leader. This bounds the replication factor a placement
/// can satisfy.
pub fn num_failure_domains(topo: &ParallelTopology) -> usize {
    let domains: BTreeSet<usize> = (0..topo.num_shard_groups())
        .map(|g| domain_of_group(topo, g))
        .collect();
    domains.len()
}

/// A deterministic expert → shard-group placement with replicas.
///
/// `replicas[i]` (indexed by `layer · num_experts + expert`) lists the
/// shard groups hosting the expert's checkpoint duties, the original
/// primary first; `owner[i]` is the group *currently* owning the expert
/// — equal to `replicas[i][0]` until a shrink migrates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    replication: usize,
    num_groups: usize,
    num_experts: usize,
    num_moe_layers: usize,
    replicas: Vec<Vec<usize>>,
    owner: Vec<usize>,
}

impl PlacementPlan {
    /// Builds a plan from explicit replica lists (`replicas[layer][e]`
    /// flattened as `layer · num_experts + e`). The first replica of each
    /// expert becomes its owner.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] for empty replica lists or groups
    /// outside `0..num_groups`.
    pub fn from_replicas(
        replication: usize,
        num_groups: usize,
        num_experts: usize,
        num_moe_layers: usize,
        replicas: Vec<Vec<usize>>,
    ) -> Result<Self, PlacementError> {
        assert_eq!(
            replicas.len(),
            num_experts * num_moe_layers,
            "one replica list per expert"
        );
        let mut owner = Vec::with_capacity(replicas.len());
        for (i, list) in replicas.iter().enumerate() {
            let expert = ExpertId::new(i / num_experts.max(1), i % num_experts.max(1));
            let Some(&first) = list.first() else {
                return Err(PlacementError::EmptyReplicaList { expert });
            };
            for &g in list {
                if g >= num_groups {
                    return Err(PlacementError::GroupOutOfRange {
                        group: g,
                        groups: num_groups,
                    });
                }
            }
            owner.push(first);
        }
        Ok(Self {
            replication,
            num_groups,
            num_experts,
            num_moe_layers,
            replicas,
            owner,
        })
    }

    /// The replication factor the plan was built for.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Shard groups in the world the plan was built for.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Experts per MoE layer.
    pub fn num_experts(&self) -> usize {
        self.num_experts
    }

    /// MoE layers covered.
    pub fn num_moe_layers(&self) -> usize {
        self.num_moe_layers
    }

    fn index(&self, id: ExpertId) -> usize {
        assert!(
            id.layer < self.num_moe_layers && id.expert < self.num_experts,
            "expert {id:?} outside placement"
        );
        id.layer * self.num_experts + id.expert
    }

    /// The replica groups of an expert, original primary first.
    pub fn replicas_of(&self, id: ExpertId) -> &[usize] {
        &self.replicas[self.index(id)]
    }

    /// The shard group currently owning an expert's checkpoint duties.
    pub fn owner_of(&self, id: ExpertId) -> usize {
        self.owner[self.index(id)]
    }

    /// The expert's original (pre-migration) owner.
    pub fn primary_of(&self, id: ExpertId) -> usize {
        self.replicas[self.index(id)][0]
    }

    /// Whether the expert currently lives away from its original primary.
    pub fn is_migrated(&self, id: ExpertId) -> bool {
        self.owner_of(id) != self.primary_of(id)
    }

    /// Every expert currently owned by `group`, in `(layer, expert)`
    /// order.
    pub fn experts_owned_by(&self, group: usize) -> Vec<ExpertId> {
        (0..self.num_moe_layers)
            .flat_map(|layer| (0..self.num_experts).map(move |e| ExpertId::new(layer, e)))
            .filter(|&id| self.owner_of(id) == group)
            .collect()
    }

    /// Current owner load per group: how many experts each group owns.
    pub fn owner_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_groups];
        for &o in &self.owner {
            loads[o] += 1;
        }
        loads
    }

    /// Original primary load per group.
    pub fn primary_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_groups];
        for list in &self.replicas {
            loads[list[0]] += 1;
        }
        loads
    }

    /// Experts whose current owner differs from their original primary.
    pub fn migrated_count(&self) -> usize {
        (0..self.owner.len())
            .filter(|&i| self.owner[i] != self.replicas[i][0])
            .count()
    }

    /// All expert ids the plan covers, `(layer, expert)` ascending.
    pub fn all_experts(&self) -> impl Iterator<Item = ExpertId> + '_ {
        (0..self.num_moe_layers)
            .flat_map(move |layer| (0..self.num_experts).map(move |e| ExpertId::new(layer, e)))
    }

    /// Re-keys ownership after `dead` groups were lost: every expert
    /// owned by a dead group migrates to its first surviving replica, or
    /// — when every replica died — to the surviving group given by
    /// `fallback(expert)`. Returns the migrated plan and how many experts
    /// moved.
    ///
    /// # Errors
    ///
    /// [`PlacementError::NoSurvivors`] when `dead` covers every group.
    pub fn migrated(
        &self,
        dead: &BTreeSet<usize>,
        mut fallback: impl FnMut(ExpertId) -> usize,
    ) -> Result<(Self, usize), PlacementError> {
        if (0..self.num_groups).all(|g| dead.contains(&g)) {
            return Err(PlacementError::NoSurvivors);
        }
        let mut plan = self.clone();
        let mut moved = 0usize;
        for id in self.all_experts() {
            let i = self.index(id);
            if !dead.contains(&plan.owner[i]) {
                continue;
            }
            let target = plan.replicas[i]
                .iter()
                .copied()
                .find(|g| !dead.contains(g))
                .unwrap_or_else(|| fallback(id));
            assert!(
                !dead.contains(&target) && target < self.num_groups,
                "fallback must name a surviving group"
            );
            plan.owner[i] = target;
            moved += 1;
        }
        Ok((plan, moved))
    }

    /// Restores ownership to the original primary for every expert whose
    /// primary is in `returning` (the expand half of the protocol).
    /// Returns the plan and how many experts moved home.
    pub fn restored(&self, returning: &BTreeSet<usize>) -> (Self, usize) {
        let mut plan = self.clone();
        let mut moved = 0usize;
        for id in self.all_experts() {
            let i = self.index(id);
            let home = plan.replicas[i][0];
            if plan.owner[i] != home && returning.contains(&home) {
                plan.owner[i] = home;
                moved += 1;
            }
        }
        (plan, moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PlacementPlan {
        // 2 layers × 2 experts over 4 groups, replication 2.
        PlacementPlan::from_replicas(
            2,
            4,
            2,
            2,
            vec![vec![0, 2], vec![1, 3], vec![2, 0], vec![3, 1]],
        )
        .unwrap()
    }

    #[test]
    fn owner_starts_at_primary() {
        let p = plan();
        for id in p.all_experts() {
            assert_eq!(p.owner_of(id), p.primary_of(id));
            assert!(!p.is_migrated(id));
        }
        assert_eq!(p.migrated_count(), 0);
        assert_eq!(p.owner_loads(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn migration_prefers_surviving_replica() {
        let p = plan();
        let dead: BTreeSet<usize> = [0].into_iter().collect();
        let (m, moved) = p.migrated(&dead, |_| 1).unwrap();
        // Expert (0,0) lived on 0 with replica 2: it migrates there.
        assert_eq!(m.owner_of(ExpertId::new(0, 0)), 2);
        assert!(m.is_migrated(ExpertId::new(0, 0)));
        assert_eq!(moved, 1);
        assert_eq!(m.migrated_count(), 1);
    }

    #[test]
    fn migration_falls_back_when_all_replicas_dead() {
        let p = plan();
        let dead: BTreeSet<usize> = [0, 2].into_iter().collect();
        let (m, moved) = p.migrated(&dead, |_| 3).unwrap();
        assert_eq!(m.owner_of(ExpertId::new(0, 0)), 3, "both replicas dead");
        assert_eq!(m.owner_of(ExpertId::new(1, 0)), 3, "replica 0 dead too");
        assert_eq!(moved, 2);
    }

    #[test]
    fn restore_returns_experts_home() {
        let p = plan();
        let dead: BTreeSet<usize> = [0].into_iter().collect();
        let (m, _) = p.migrated(&dead, |_| 1).unwrap();
        let returning: BTreeSet<usize> = [0].into_iter().collect();
        let (r, moved) = m.restored(&returning);
        assert_eq!(moved, 1);
        assert_eq!(r, p, "full expand restores the original plan");
    }

    #[test]
    fn no_survivors_rejected() {
        let p = plan();
        let dead: BTreeSet<usize> = (0..4).collect();
        assert_eq!(p.migrated(&dead, |_| 0), Err(PlacementError::NoSurvivors));
    }

    #[test]
    fn bad_replica_lists_rejected() {
        let err = PlacementPlan::from_replicas(1, 2, 1, 1, vec![vec![5]]);
        assert_eq!(
            err,
            Err(PlacementError::GroupOutOfRange {
                group: 5,
                groups: 2
            })
        );
        let err = PlacementPlan::from_replicas(1, 2, 1, 1, vec![vec![]]);
        assert!(matches!(err, Err(PlacementError::EmptyReplicaList { .. })));
    }

    #[test]
    fn failure_domains_follow_group_leaders() {
        let t = ParallelTopology::dp_ep(2, 4, 8, 8).unwrap();
        assert_eq!(num_failure_domains(&t), 2);
        assert_eq!(domain_of_group(&t, 0), 0);
        assert_eq!(domain_of_group(&t, 4), 1);
        // tp·pp spans half a node: leaders land on every node.
        let g = ParallelTopology::new(2, 4, 2, 2, 2, 2).unwrap();
        assert_eq!(num_failure_domains(&g), 2);
        assert_eq!(domain_of_group(&g, 0), 0);
        assert_eq!(domain_of_group(&g, 1), 1);
    }
}
