//! Buddy groups and the offloading policy (§3.2.1, §3.2.2a).
//!
//! "The receive queues accessed by threads (or processes) of a single
//! application can form a buddy group. Traffic offloading is only allowed
//! within a buddy group." The policy itself: when a capture thread moves
//! a chunk up and its own capture queue exceeds the threshold T, it
//! places the chunk on the capture queue of "an idle or less busy receive
//! queue" — we pick the buddy with the shortest capture queue, strictly
//! inside the group.

/// How an over-threshold capture thread picks the buddy to offload to.
///
/// The paper's policy is "an idle or less busy receive queue" — shortest
/// capture queue. The alternatives exist for the ablation study
/// (`bench/bin/ablations`): they answer whether the *choice* of target
/// matters or only the act of offloading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The paper's policy: the buddy with the shortest capture queue.
    #[default]
    ShortestQueue,
    /// Rotate through buddies regardless of load.
    RoundRobin,
    /// Always the next queue index (a naive static spillover).
    NextNeighbor,
}

/// A buddy group: the set of receive queues one application owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuddyGroup {
    members: Vec<usize>,
    policy: PlacementPolicy,
}

impl BuddyGroup {
    /// Forms a buddy group over the given queue indices.
    pub fn new(members: Vec<usize>) -> Self {
        assert!(
            !members.is_empty(),
            "a buddy group needs at least one queue"
        );
        BuddyGroup {
            members,
            policy: PlacementPolicy::ShortestQueue,
        }
    }

    /// Replaces the placement policy (ablation support).
    pub fn with_policy(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The group's placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// A group over queues `0..n` (the paper's single-application setup).
    pub fn all(n: usize) -> Self {
        BuddyGroup::new((0..n).collect())
    }

    /// The queues in this group.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Whether `queue` belongs to this group.
    pub fn contains(&self, queue: usize) -> bool {
        self.members.contains(&queue)
    }

    /// The queues worker `worker` of a `workers`-wide consumer pool
    /// owns: the members at positions ≡ `worker` (mod `workers`).
    /// Shards are disjoint, cover the whole group, and differ in size
    /// by at most one queue; with `workers > members` the extra
    /// workers own nothing and only claim from other workers' shards.
    pub fn worker_shard(&self, worker: usize, workers: usize) -> Vec<usize> {
        assert!(workers > 0, "a pool needs at least one worker");
        self.members
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % workers == worker % workers)
            .map(|(_, q)| q)
            .collect()
    }

    /// The offloading decision for a chunk captured on `from`:
    /// given each queue's capture-queue length (`lens[q]`) and shared
    /// capacity, returns the buddy to place the chunk on — `from` itself
    /// when its occupancy is within the threshold, otherwise a buddy
    /// chosen by the group's [`PlacementPolicy`] (the paper's default:
    /// shortest capture queue, ties broken by lowest index for
    /// determinism). Offloading never leaves the group.
    pub fn place(&self, from: usize, lens: &[usize], capacity: usize, threshold: f64) -> usize {
        self.place_seq(from, lens, capacity, threshold, 0)
    }

    /// [`BuddyGroup::place`] with a decision sequence number, which the
    /// rotation-based policies use as their cursor (keeps the group
    /// stateless and the simulation deterministic).
    pub fn place_seq(
        &self,
        from: usize,
        lens: &[usize],
        capacity: usize,
        threshold: f64,
        seq: u64,
    ) -> usize {
        debug_assert!(self.contains(from));
        let own = lens[from];
        if (own as f64) <= threshold * capacity as f64 {
            return from;
        }
        match self.policy {
            PlacementPolicy::ShortestQueue => self
                .members
                .iter()
                .copied()
                .min_by_key(|&q| (lens[q], q))
                .unwrap_or(from),
            PlacementPolicy::RoundRobin => self.members[(seq as usize) % self.members.len()],
            PlacementPolicy::NextNeighbor => {
                let pos = self.members.iter().position(|&q| q == from).unwrap_or(0);
                self.members[(pos + 1) % self.members.len()]
            }
        }
    }
}

/// A partition of queues into buddy groups (one per application), with
/// lookup from queue to group.
#[derive(Debug, Clone)]
pub struct BuddyGroups {
    groups: Vec<BuddyGroup>,
    /// queue index -> group index
    of_queue: Vec<Option<usize>>,
}

impl BuddyGroups {
    /// Builds a partition over `queues` total queues.
    ///
    /// # Panics
    /// Panics if a queue appears in two groups or is out of range —
    /// offloading across applications would violate application logic
    /// (§3.2.2c: "Different applications do not interfere with one
    /// another").
    pub fn new(queues: usize, groups: Vec<BuddyGroup>) -> Self {
        let mut of_queue = vec![None; queues];
        for (gi, g) in groups.iter().enumerate() {
            for &q in g.members() {
                assert!(q < queues, "queue {q} out of range");
                assert!(
                    of_queue[q].is_none(),
                    "queue {q} cannot belong to two buddy groups"
                );
                of_queue[q] = Some(gi);
            }
        }
        BuddyGroups { groups, of_queue }
    }

    /// Every queue in one group (the multi_pkt_handler setup of §4).
    pub fn single(queues: usize) -> Self {
        BuddyGroups::new(queues, vec![BuddyGroup::all(queues)])
    }

    /// Each queue its own group — equivalent to basic mode.
    pub fn isolated(queues: usize) -> Self {
        BuddyGroups::new(
            queues,
            (0..queues).map(|q| BuddyGroup::new(vec![q])).collect(),
        )
    }

    /// The group `queue` belongs to, if any.
    pub fn group_of(&self, queue: usize) -> Option<&BuddyGroup> {
        self.of_queue[queue].map(|gi| &self.groups[gi])
    }

    /// All groups.
    pub fn groups(&self) -> &[BuddyGroup] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_threshold_stays_home() {
        let g = BuddyGroup::all(4);
        let lens = [50, 0, 0, 0];
        assert_eq!(g.place(0, &lens, 100, 0.6), 0);
    }

    #[test]
    fn above_threshold_picks_shortest_buddy() {
        let g = BuddyGroup::all(4);
        let lens = [61, 10, 3, 7];
        assert_eq!(g.place(0, &lens, 100, 0.6), 2);
    }

    #[test]
    fn ties_break_deterministically() {
        let g = BuddyGroup::all(4);
        let lens = [61, 5, 5, 5];
        assert_eq!(g.place(0, &lens, 100, 0.6), 1);
    }

    #[test]
    fn offloading_respects_group_boundary() {
        // Queues 0-1 belong to app 1, queues 2-3 to app 2 (the paper's
        // Figure 5). Queue 0 overloads; queue 2 is idle but off-limits.
        let g = BuddyGroup::new(vec![0, 1]);
        let lens = [90, 40, 0, 0];
        assert_eq!(g.place(0, &lens, 100, 0.6), 1);
    }

    #[test]
    fn single_member_group_never_moves() {
        let g = BuddyGroup::new(vec![3]);
        let lens = [0, 0, 0, 99];
        assert_eq!(g.place(3, &lens, 100, 0.1), 3);
    }

    #[test]
    fn partition_lookup() {
        let groups = BuddyGroups::new(
            4,
            vec![BuddyGroup::new(vec![0, 1]), BuddyGroup::new(vec![2, 3])],
        );
        assert!(groups.group_of(0).unwrap().contains(1));
        assert!(!groups.group_of(0).unwrap().contains(2));
        assert!(groups.group_of(3).unwrap().contains(2));
        assert_eq!(groups.groups().len(), 2);
    }

    #[test]
    #[should_panic(expected = "two buddy groups")]
    fn overlapping_groups_rejected() {
        BuddyGroups::new(
            3,
            vec![BuddyGroup::new(vec![0, 1]), BuddyGroup::new(vec![1, 2])],
        );
    }

    #[test]
    fn round_robin_rotates_with_seq() {
        let g = BuddyGroup::all(3).with_policy(PlacementPolicy::RoundRobin);
        let lens = [99, 99, 99];
        let picks: Vec<usize> = (0..6).map(|s| g.place_seq(0, &lens, 100, 0.6, s)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn next_neighbor_is_static() {
        let g = BuddyGroup::all(3).with_policy(PlacementPolicy::NextNeighbor);
        let lens = [99, 0, 0];
        for s in 0..5 {
            assert_eq!(g.place_seq(0, &lens, 100, 0.6, s), 1);
        }
        assert_eq!(g.place_seq(2, &[0, 0, 99], 100, 0.6, 0), 0);
    }

    #[test]
    fn policies_only_apply_over_threshold() {
        for policy in [
            PlacementPolicy::ShortestQueue,
            PlacementPolicy::RoundRobin,
            PlacementPolicy::NextNeighbor,
        ] {
            let g = BuddyGroup::all(4).with_policy(policy);
            assert_eq!(g.place_seq(2, &[0, 0, 10, 0], 100, 0.6, 7), 2, "{policy:?}");
        }
    }

    #[test]
    fn worker_shards_partition_the_group() {
        let g = BuddyGroup::new(vec![2, 5, 7, 9, 11]);
        let shards: Vec<Vec<usize>> = (0..3).map(|w| g.worker_shard(w, 3)).collect();
        assert_eq!(shards[0], vec![2, 9]);
        assert_eq!(shards[1], vec![5, 11]);
        assert_eq!(shards[2], vec![7]);
        let mut all: Vec<usize> = shards.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![2, 5, 7, 9, 11], "disjoint and covering");
        // More workers than members: the surplus owns nothing.
        assert!(g.worker_shard(6, 7).is_empty());
        // One worker owns everything.
        assert_eq!(g.worker_shard(0, 1), vec![2, 5, 7, 9, 11]);
    }

    #[test]
    fn helper_partitions() {
        assert_eq!(BuddyGroups::single(3).groups().len(), 1);
        assert_eq!(BuddyGroups::isolated(3).groups().len(), 3);
    }
}
