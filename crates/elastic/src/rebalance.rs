//! Shrink/expand rebalance plans: who adopts what when groups die.
//!
//! A [`ShrinkPlan`] is computed when shard groups are lost and the run
//! continues on the survivors instead of respawning: every dead group's
//! DP batch slice is adopted by a surviving group (balanced round-robin,
//! deterministic), and every expert owned by a dead group migrates to
//! its first surviving replica under the [`PlacementPlan`] — or to its
//! slice adopter when all replicas died. The symmetric [`ExpandPlan`]
//! returns slices and experts home when replacement groups rejoin.
//!
//! Plans are pure functions of `(placement, dead set)`, so the
//! coordinator and any observer agree on the rebalance without
//! negotiation — the property that lets the runtime keep its bitwise
//! determinism contract through a shrink.

use moc_core::placement::{PlacementError, PlacementPlan};
use moc_moe::ExpertId;
use std::collections::{BTreeMap, BTreeSet};

/// The rebalance computed when `dead_groups` are lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkPlan {
    /// Shard groups that died (DP indices).
    pub dead_groups: BTreeSet<usize>,
    /// Slice adoption: dead group → surviving group that additionally
    /// computes its DP batch slice each step.
    pub adoptions: BTreeMap<usize, usize>,
    /// Experts that migrated: `(expert, from, to)`.
    pub migrations: Vec<(ExpertId, usize, usize)>,
    /// The post-shrink placement (owners re-keyed onto survivors).
    pub placement: PlacementPlan,
}

impl ShrinkPlan {
    /// Number of experts the shrink migrated.
    pub fn experts_migrated(&self) -> usize {
        self.migrations.len()
    }
}

/// The rebalance computed when `returning_groups` rejoin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandPlan {
    /// Shard groups that rejoined.
    pub returning_groups: BTreeSet<usize>,
    /// Experts that moved back to their original primary.
    pub experts_returned: usize,
    /// The post-expand placement.
    pub placement: PlacementPlan,
}

/// Plans the shrink after `dead` groups were lost from `placement`'s
/// world. Slice adoption assigns each dead group to the surviving group
/// with the fewest adopted slices (ties toward the lowest index);
/// expert ownership migrates through [`PlacementPlan::migrated`] with
/// the slice adopter as the all-replicas-dead fallback.
///
/// # Errors
///
/// [`PlacementError::NoSurvivors`] when `dead` covers every group.
pub fn plan_shrink(
    placement: &PlacementPlan,
    dead: &BTreeSet<usize>,
) -> Result<ShrinkPlan, PlacementError> {
    let survivors: Vec<usize> = (0..placement.num_groups())
        .filter(|g| !dead.contains(g))
        .collect();
    if survivors.is_empty() {
        return Err(PlacementError::NoSurvivors);
    }

    // Balanced deterministic slice adoption.
    let mut adopted_count: BTreeMap<usize, usize> = survivors.iter().map(|&s| (s, 0)).collect();
    let mut adoptions: BTreeMap<usize, usize> = BTreeMap::new();
    for &d in dead {
        let &adopter = survivors
            .iter()
            .min_by_key(|&&s| (adopted_count[&s], s))
            .expect("nonempty survivors");
        *adopted_count.get_mut(&adopter).expect("tracked") += 1;
        adoptions.insert(d, adopter);
    }

    let before = placement.clone();
    let (migrated, _) = placement.migrated(dead, |id| {
        let home = before.owner_of(id);
        adoptions
            .get(&home)
            .copied()
            .unwrap_or_else(|| survivors[0])
    })?;
    let migrations: Vec<(ExpertId, usize, usize)> = before
        .all_experts()
        .filter(|&id| before.owner_of(id) != migrated.owner_of(id))
        .map(|id| (id, before.owner_of(id), migrated.owner_of(id)))
        .collect();

    Ok(ShrinkPlan {
        dead_groups: dead.clone(),
        adoptions,
        migrations,
        placement: migrated,
    })
}

/// Plans the expand when `returning` groups rejoin a shrunk `placement`:
/// their slices return home and every expert whose original primary is
/// in `returning` moves back.
pub fn plan_expand(placement: &PlacementPlan, returning: &BTreeSet<usize>) -> ExpandPlan {
    let (restored, moved) = placement.restored(returning);
    ExpandPlan {
        returning_groups: returning.clone(),
        experts_returned: moved,
        placement: restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlacementPlanner;
    use moc_core::topology::ParallelTopology;

    fn plan() -> PlacementPlan {
        let topo = ParallelTopology::dp_ep(2, 4, 8, 8).unwrap();
        PlacementPlanner::new(topo, 8, 4, 2).plan().unwrap()
    }

    #[test]
    fn shrink_moves_everything_onto_survivors() {
        let p = plan();
        let dead: BTreeSet<usize> = [4, 5, 6, 7].into_iter().collect();
        let s = plan_shrink(&p, &dead).unwrap();
        for id in s.placement.all_experts() {
            assert!(
                !dead.contains(&s.placement.owner_of(id)),
                "{id:?} still owned by a dead group"
            );
        }
        for (&d, a) in &s.adoptions {
            assert!(dead.contains(&d));
            assert!(!dead.contains(a));
        }
        assert_eq!(s.adoptions.len(), dead.len());
        // Node 1 held half the primaries: they all migrated.
        assert!(s.experts_migrated() > 0);
        // Slice adoption is balanced: 4 dead over 4 survivors, one each.
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for a in s.adoptions.values() {
            *counts.entry(*a).or_default() += 1;
        }
        assert!(counts.values().all(|&c| c == 1), "{:?}", s.adoptions);
    }

    #[test]
    fn shrink_is_deterministic() {
        let p = plan();
        let dead: BTreeSet<usize> = [2, 5].into_iter().collect();
        assert_eq!(plan_shrink(&p, &dead), plan_shrink(&p, &dead));
    }

    #[test]
    fn expand_restores_the_original_plan() {
        let p = plan();
        let dead: BTreeSet<usize> = [4, 5, 6, 7].into_iter().collect();
        let s = plan_shrink(&p, &dead).unwrap();
        let e = plan_expand(&s.placement, &dead);
        assert_eq!(e.placement, p);
        assert_eq!(e.experts_returned, s.experts_migrated());
    }

    #[test]
    fn total_loss_is_rejected() {
        let p = plan();
        let dead: BTreeSet<usize> = (0..8).collect();
        assert_eq!(plan_shrink(&p, &dead), Err(PlacementError::NoSurvivors));
    }

    #[test]
    fn second_shrink_composes() {
        // Kill node 1's groups, then two of the survivors: ownership must
        // still land on live groups.
        let p = plan();
        let first: BTreeSet<usize> = [4, 5, 6, 7].into_iter().collect();
        let s1 = plan_shrink(&p, &first).unwrap();
        let all_dead: BTreeSet<usize> = [2, 3, 4, 5, 6, 7].into_iter().collect();
        let s2 = plan_shrink(&s1.placement, &all_dead).unwrap();
        for id in s2.placement.all_experts() {
            assert!(matches!(s2.placement.owner_of(id), 0 | 1));
        }
    }
}
