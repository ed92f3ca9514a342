//! Shared types for the protocol implementations.

use gossip_sim::{Round, RumorSet, SimMetrics, StopReason};
use latency_graph::NodeId;

/// A dissemination goal, stated so it can be evaluated *per node* from
/// that node's rumor set alone.
///
/// This is the protocol/transport boundary: the simulator's stop
/// closures evaluate [`met_by_all`](Goal::met_by_all) over the global
/// node array, while the `gossip-net` runtime — where no process sees
/// global state — has each node report [`locally_met`](Goal::locally_met)
/// and detects termination with a distributed done barrier. Both
/// evaluate the same predicate, which is what makes the loopback
/// equivalence argument (DESIGN.md §11) compositional.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Goal {
    /// Every node holds `source`'s rumor (one-to-all broadcast).
    Broadcast(NodeId),
    /// Every node holds the rumor of every listed source.
    FromSet(Vec<NodeId>),
    /// Every node holds every rumor (all-to-all dissemination).
    AllToAll,
}

impl Goal {
    /// Whether `rumors` satisfies the goal from one node's perspective.
    pub fn locally_met(&self, rumors: &RumorSet) -> bool {
        match self {
            Goal::Broadcast(source) => rumors.contains(*source),
            Goal::FromSet(sources) => sources.iter().all(|&s| rumors.contains(s)),
            Goal::AllToAll => rumors.is_full(),
        }
    }

    /// Whether every node's rumor set satisfies the goal — the shape
    /// the simulator's stop closures take.
    pub fn met_by_all<'a, I, R>(&self, rumors: I) -> bool
    where
        I: IntoIterator<Item = &'a R>,
        R: AsRef<RumorSet> + 'a,
    {
        rumors.into_iter().all(|r| self.locally_met(r.as_ref()))
    }
}

/// State that can be merged monotonically during an exchange — rumor
/// sets, topology knowledge, flag vectors.
///
/// The merge must be idempotent, commutative, and monotone (merging can
/// only add information); [`merge`](Mergeable::merge) reports whether
/// anything changed. No `Send`/`Sync` bound: mergeable state travels
/// inside engine payloads, and the engine runs each simulation on one
/// thread.
pub trait Mergeable: Clone {
    /// Absorbs `other`; returns `true` if `self` changed.
    fn merge(&mut self, other: &Self) -> bool;

    /// The size of this state in message units (rumors, edges, …), for
    /// message-complexity accounting. Defaults to 1.
    fn weight(&self) -> u64 {
        1
    }
}

impl Mergeable for RumorSet {
    fn merge(&mut self, other: &Self) -> bool {
        self.union_with(other)
    }

    fn weight(&self) -> u64 {
        u64::try_from(self.len()).expect("rumor count fits u64")
    }
}

/// The result of a dissemination run (one-to-all or all-to-all).
#[derive(Clone, Debug)]
pub struct BroadcastOutcome {
    /// Rounds until the goal condition held (or the cap was hit).
    pub rounds: Round,
    /// Whether the goal condition was reached within the cap.
    pub complete: bool,
    /// Simulator counters (activations, deliveries, losses).
    pub metrics: SimMetrics,
    /// Final per-node rumor sets.
    pub rumors: Vec<RumorSet>,
}

impl BroadcastOutcome {
    pub(crate) fn from_parts(
        rounds: Round,
        reason: StopReason,
        metrics: SimMetrics,
        rumors: Vec<RumorSet>,
    ) -> BroadcastOutcome {
        BroadcastOutcome {
            rounds,
            complete: reason != StopReason::MaxRounds,
            metrics,
            rumors,
        }
    }

    /// Whether the run reached its goal.
    pub fn completed(&self) -> bool {
        self.complete
    }

    /// Number of nodes holding the rumor of `source` — a progress
    /// measure for incomplete runs.
    ///
    /// # Panics
    ///
    /// Panics if `source` is outside the rumor universe.
    pub fn informed_count(&self, source: latency_graph::NodeId) -> usize {
        self.rumors.iter().filter(|r| r.contains(source)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::NodeId;

    #[test]
    fn rumor_set_merge_is_union() {
        let mut a = RumorSet::singleton(8, NodeId::new(1));
        let b = RumorSet::singleton(8, NodeId::new(2));
        assert!(a.merge(&b));
        assert!(!a.merge(&b));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn goal_local_and_global_agree() {
        let full = RumorSet::full(4);
        let partial = {
            let mut s = RumorSet::singleton(4, NodeId::new(0));
            s.insert(NodeId::new(2));
            s
        };
        for goal in [
            Goal::Broadcast(NodeId::new(0)),
            Goal::FromSet(vec![NodeId::new(0), NodeId::new(2)]),
            Goal::AllToAll,
        ] {
            assert!(goal.locally_met(&full), "{goal:?} on full");
            assert_eq!(
                goal.met_by_all([&full, &partial]),
                goal.locally_met(&full) && goal.locally_met(&partial),
                "{goal:?} global = conjunction of locals"
            );
        }
        assert!(Goal::Broadcast(NodeId::new(0)).locally_met(&partial));
        assert!(!Goal::Broadcast(NodeId::new(1)).locally_met(&partial));
        assert!(Goal::FromSet(vec![NodeId::new(0), NodeId::new(2)]).locally_met(&partial));
        assert!(!Goal::FromSet(vec![NodeId::new(1)]).locally_met(&partial));
        assert!(!Goal::AllToAll.locally_met(&partial));
    }

    #[test]
    fn outcome_informed_count() {
        let rumors = vec![
            RumorSet::singleton(3, NodeId::new(0)),
            RumorSet::full(3),
            RumorSet::singleton(3, NodeId::new(2)),
        ];
        let o = BroadcastOutcome {
            rounds: 5,
            complete: true,
            metrics: SimMetrics::default(),
            rumors,
        };
        assert_eq!(o.informed_count(NodeId::new(0)), 2);
        assert_eq!(o.informed_count(NodeId::new(2)), 2);
        assert!(o.completed());
    }
}
