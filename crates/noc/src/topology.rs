//! Topology, routing and link timing.

use cord_sim::fault::{FaultAction, FaultPlan};
use cord_sim::Time;

use crate::traffic::{PairFlow, TrafficStats};

/// Identifies one tile (core + co-located LLC slice/directory) in the system.
///
/// # Example
///
/// ```
/// use cord_noc::TileId;
///
/// let t = TileId::new(2, 5);
/// assert_eq!(t.host, 2);
/// assert_eq!(t.flat(8), 21);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId {
    /// Host (CPU package) index.
    pub host: u32,
    /// Tile index within the host's mesh.
    pub tile: u32,
}

impl TileId {
    /// Creates a tile id.
    pub const fn new(host: u32, tile: u32) -> Self {
        TileId { host, tile }
    }

    /// Flat host-major index given `tiles_per_host`.
    pub const fn flat(self, tiles_per_host: u32) -> u32 {
        self.host * tiles_per_host + self.tile
    }

    /// Inverse of [`TileId::flat`].
    pub const fn from_flat(flat: u32, tiles_per_host: u32) -> Self {
        TileId {
            host: flat / tiles_per_host,
            tile: flat % tiles_per_host,
        }
    }
}

/// Message classes for traffic accounting (paper Figs. 2, 7, 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MsgClass {
    /// Payload-bearing messages: write-through stores, MP writes, data
    /// responses, write-backs.
    Data = 0,
    /// Store/Release acknowledgments (the traffic source ordering adds).
    Ack = 1,
    /// CORD request-for-notification messages (processor → pending dir).
    ReqNotify = 2,
    /// CORD notification messages (pending dir → destination dir).
    Notify = 3,
    /// Other control: read requests, GetS/GetM, invalidations, …
    Ctrl = 4,
}

impl MsgClass {
    /// Number of message classes.
    pub const COUNT: usize = 5;
    /// All classes, in index order.
    pub const ALL: [MsgClass; Self::COUNT] = [
        MsgClass::Data,
        MsgClass::Ack,
        MsgClass::ReqNotify,
        MsgClass::Notify,
        MsgClass::Ctrl,
    ];

    /// Static class label, used for tracing and reports.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Data => "Data",
            MsgClass::Ack => "Ack",
            MsgClass::ReqNotify => "ReqNotify",
            MsgClass::Notify => "Notify",
            MsgClass::Ctrl => "Ctrl",
        }
    }
}

/// Two-level inter-host hierarchy: hosts grouped into pods with local
/// switches, pods joined by a root switch (the "increasingly complex
/// interconnect topologies" of CXL fabrics the paper points to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodConfig {
    /// Hosts per pod.
    pub hosts_per_pod: u32,
    /// One-way latency through a pod-local switch.
    pub pod_latency: Time,
    /// Additional one-way latency pod-switch → root switch → pod-switch for
    /// cross-pod traffic.
    pub root_latency: Time,
}

/// Three-tier fat-tree: hosts attach to edge switches, edge switches group
/// into pods under an aggregation tier, and pods join through core switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeConfig {
    /// Hosts per edge switch.
    pub hosts_per_edge: u32,
    /// Edge switches per pod (aggregation domain).
    pub edges_per_pod: u32,
    /// One-way latency through an edge switch (paid by every inter-host
    /// message).
    pub edge_latency: Time,
    /// Additional one-way latency for the aggregation tier, paid when
    /// traffic leaves its edge switch but stays in the pod.
    pub aggr_latency: Time,
    /// Additional one-way latency for the core tier, paid by cross-pod
    /// traffic on top of edge + aggregation.
    pub core_latency: Time,
}

/// Dragonfly: hosts grouped into fully connected local groups, groups joined
/// by direct global links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DragonflyConfig {
    /// Hosts per dragonfly group.
    pub hosts_per_group: u32,
    /// One-way latency of a local (intra-group) link.
    pub local_latency: Time,
    /// One-way latency of a global (inter-group) link; cross-group traffic
    /// pays local + global + local.
    pub global_latency: Time,
}

/// Inter-host fabric shape: what a frame pays between the source host's
/// egress port and the destination host's ingress port.
///
/// The fabric is *data*, not code: every shape is parameterized by counts
/// and per-tier latencies, parses from a one-line grammar ([`Fabric::parse`])
/// and renders back canonically (`Display`), so benches, fuzzers and repro
/// files can name arbitrary topologies:
///
/// ```text
/// flat
/// pods <hosts_per_pod> <pod_ns> <root_ns>
/// fattree <hosts_per_edge> <edges_per_pod> <edge_ns> <aggr_ns> <core_ns>
/// dragonfly <hosts_per_group> <local_ns> <global_ns>
/// ```
///
/// # Example
///
/// ```
/// use cord_noc::Fabric;
///
/// let f = Fabric::parse("pods 4 60 180").unwrap();
/// assert_eq!(f.to_string(), "pods 4 60 180");
/// assert!(f.check(8).is_ok());   // 4-host pods partition 8 hosts
/// assert!(f.check(6).is_err());  // ... but not 6
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// The paper's single switch: every distinct pair pays the config's
    /// `inter_host_latency`.
    Flat,
    /// Two-level pod/root hierarchy.
    Pods(PodConfig),
    /// Three-tier fat-tree (edge / aggregation / core).
    FatTree(FatTreeConfig),
    /// Dragonfly groups with direct global links.
    Dragonfly(DragonflyConfig),
}

impl Fabric {
    /// Validates the shape against a host count: group sizes must be nonzero
    /// and partition the hosts evenly. Returns a human-readable reason on
    /// failure (the non-panicking mirror of [`NocConfig::with_fabric`]).
    pub fn check(&self, hosts: u32) -> Result<(), String> {
        match *self {
            Fabric::Flat => Ok(()),
            Fabric::Pods(p) => {
                if p.hosts_per_pod == 0 || !hosts.is_multiple_of(p.hosts_per_pod) {
                    Err(format!(
                        "pods of {} hosts must partition the {hosts} hosts",
                        p.hosts_per_pod
                    ))
                } else {
                    Ok(())
                }
            }
            Fabric::FatTree(t) => {
                let pod = t.hosts_per_edge.saturating_mul(t.edges_per_pod);
                if pod == 0 || !hosts.is_multiple_of(pod) {
                    Err(format!(
                        "fat-tree pods of {}x{} hosts must partition the {hosts} hosts",
                        t.hosts_per_edge, t.edges_per_pod
                    ))
                } else {
                    Ok(())
                }
            }
            Fabric::Dragonfly(d) => {
                if d.hosts_per_group == 0 || !hosts.is_multiple_of(d.hosts_per_group) {
                    Err(format!(
                        "dragonfly groups of {} hosts must partition the {hosts} hosts",
                        d.hosts_per_group
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// One-way latency between two *distinct* hosts; `flat` is the config's
    /// single-switch latency used by [`Fabric::Flat`].
    fn latency(&self, flat: Time, src_host: u32, dst_host: u32) -> Time {
        match *self {
            Fabric::Flat => flat,
            Fabric::Pods(p) => {
                if src_host / p.hosts_per_pod == dst_host / p.hosts_per_pod {
                    p.pod_latency
                } else {
                    p.pod_latency + p.root_latency
                }
            }
            Fabric::FatTree(t) => {
                let (se, de) = (src_host / t.hosts_per_edge, dst_host / t.hosts_per_edge);
                if se == de {
                    t.edge_latency
                } else if se / t.edges_per_pod == de / t.edges_per_pod {
                    t.edge_latency + t.aggr_latency
                } else {
                    t.edge_latency + t.aggr_latency + t.core_latency
                }
            }
            Fabric::Dragonfly(d) => {
                if src_host / d.hosts_per_group == dst_host / d.hosts_per_group {
                    d.local_latency
                } else {
                    d.local_latency + d.global_latency + d.local_latency
                }
            }
        }
    }

    /// Switch traversals between two *distinct* hosts (1 for a shared
    /// lowest-tier switch, more per extra tier crossed). Symmetric in its
    /// arguments by construction.
    fn hops(&self, src_host: u32, dst_host: u32) -> u32 {
        match *self {
            Fabric::Flat => 1,
            Fabric::Pods(p) => {
                if src_host / p.hosts_per_pod == dst_host / p.hosts_per_pod {
                    1
                } else {
                    2
                }
            }
            Fabric::FatTree(t) => {
                let (se, de) = (src_host / t.hosts_per_edge, dst_host / t.hosts_per_edge);
                if se == de {
                    1
                } else if se / t.edges_per_pod == de / t.edges_per_pod {
                    2
                } else {
                    3
                }
            }
            Fabric::Dragonfly(d) => {
                if src_host / d.hosts_per_group == dst_host / d.hosts_per_group {
                    1
                } else {
                    3
                }
            }
        }
    }

    /// The minimum pair latency over all distinct pairs of `hosts` hosts
    /// (`hosts >= 2`), computed analytically: the closest pair shares the
    /// lowest tier that holds at least two hosts.
    fn floor(&self, flat: Time, _hosts: u32) -> Time {
        match *self {
            Fabric::Flat => flat,
            Fabric::Pods(p) => {
                if p.hosts_per_pod >= 2 {
                    p.pod_latency
                } else {
                    p.pod_latency + p.root_latency
                }
            }
            Fabric::FatTree(t) => {
                if t.hosts_per_edge >= 2 {
                    t.edge_latency
                } else if t.edges_per_pod >= 2 {
                    t.edge_latency + t.aggr_latency
                } else {
                    t.edge_latency + t.aggr_latency + t.core_latency
                }
            }
            Fabric::Dragonfly(d) => {
                if d.hosts_per_group >= 2 {
                    d.local_latency
                } else {
                    d.local_latency + d.global_latency + d.local_latency
                }
            }
        }
    }

    /// Parses the fabric grammar (see the type-level docs). Latencies are
    /// whole nanoseconds; `Display` renders the same form back, and
    /// `parse(x.to_string()) == x` for every ns-granular fabric.
    ///
    /// Host counts must fit a `u32` and latencies must fit the picosecond
    /// clock; anything larger is an `Err`, never a truncation or overflow.
    pub fn parse(s: &str) -> Result<Fabric, String> {
        let toks: Vec<&str> = s.split_whitespace().collect();
        let num = |t: &str| -> Result<u64, String> {
            t.parse::<u64>()
                .map_err(|_| format!("bad fabric number {t:?}"))
        };
        let count = |t: &str| -> Result<u32, String> {
            u32::try_from(num(t)?).map_err(|_| format!("fabric host count {t} exceeds u32"))
        };
        let ns = |t: &str| -> Result<Time, String> {
            Time::checked_from_ns(num(t)?)
                .ok_or_else(|| format!("fabric latency {t} ns overflows the picosecond clock"))
        };
        match toks.as_slice() {
            ["flat"] => Ok(Fabric::Flat),
            ["pods", hpp, pod, root] => Ok(Fabric::Pods(PodConfig {
                hosts_per_pod: count(hpp)?,
                pod_latency: ns(pod)?,
                root_latency: ns(root)?,
            })),
            ["fattree", hpe, epp, edge, aggr, core] => Ok(Fabric::FatTree(FatTreeConfig {
                hosts_per_edge: count(hpe)?,
                edges_per_pod: count(epp)?,
                edge_latency: ns(edge)?,
                aggr_latency: ns(aggr)?,
                core_latency: ns(core)?,
            })),
            ["dragonfly", hpg, local, global] => Ok(Fabric::Dragonfly(DragonflyConfig {
                hosts_per_group: count(hpg)?,
                local_latency: ns(local)?,
                global_latency: ns(global)?,
            })),
            _ => Err(format!("unknown fabric {s:?}")),
        }
    }
}

impl std::fmt::Display for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Fabric::Flat => write!(f, "flat"),
            Fabric::Pods(p) => write!(
                f,
                "pods {} {} {}",
                p.hosts_per_pod,
                p.pod_latency.as_ns(),
                p.root_latency.as_ns()
            ),
            Fabric::FatTree(t) => write!(
                f,
                "fattree {} {} {} {} {}",
                t.hosts_per_edge,
                t.edges_per_pod,
                t.edge_latency.as_ns(),
                t.aggr_latency.as_ns(),
                t.core_latency.as_ns()
            ),
            Fabric::Dragonfly(d) => write!(
                f,
                "dragonfly {} {} {}",
                d.hosts_per_group,
                d.local_latency.as_ns(),
                d.global_latency.as_ns()
            ),
        }
    }
}

/// Interconnect parameters (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Number of CPU hosts.
    pub hosts: u32,
    /// Tiles (cores / LLC slices) per host.
    pub tiles_per_host: u32,
    /// Mesh columns (2×4 mesh ⇒ 4 columns).
    pub mesh_cols: u32,
    /// Per-mesh-hop latency (10 cycles @ 2 GHz = 5 ns).
    pub hop_latency: Time,
    /// One-way host-to-host latency through the switch.
    pub inter_host_latency: Time,
    /// Link bandwidth in bytes per nanosecond (64 GB/s ⇒ 64 B/ns).
    pub link_bytes_per_ns: u64,
    /// Tile hosting the CXL/UPI port on each host.
    pub port_tile: u32,
    /// Inter-host fabric shape; [`Fabric::Flat`] = the paper's single switch
    /// with `inter_host_latency` per traversal.
    pub fabric: Fabric,
}

impl NocConfig {
    /// CXL fabric: 150 ns one-way inter-host latency (paper Table 1, \[39\]).
    pub fn cxl(hosts: u32, tiles_per_host: u32) -> Self {
        NocConfig {
            hosts,
            tiles_per_host,
            mesh_cols: 4,
            hop_latency: Time::from_ns(5),
            inter_host_latency: Time::from_ns(150),
            link_bytes_per_ns: 64,
            port_tile: 0,
            fabric: Fabric::Flat,
        }
    }

    /// Intel UPI fabric: 50 ns one-way inter-host latency.
    pub fn upi(hosts: u32, tiles_per_host: u32) -> Self {
        NocConfig {
            inter_host_latency: Time::from_ns(50),
            ..Self::cxl(hosts, tiles_per_host)
        }
    }

    /// Replaces the inter-host latency (Fig. 9 sweeps).
    pub fn with_inter_host_latency(mut self, latency: Time) -> Self {
        self.inter_host_latency = latency;
        self
    }

    /// Switches to a two-level pod/root hierarchy (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `hosts_per_pod` is zero or does not divide the host count.
    pub fn with_pods(self, pods: PodConfig) -> Self {
        assert!(
            pods.hosts_per_pod > 0 && self.hosts.is_multiple_of(pods.hosts_per_pod),
            "pods must partition the {} hosts",
            self.hosts
        );
        self.with_fabric(Fabric::Pods(pods))
    }

    /// Replaces the inter-host fabric shape (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the fabric's groups do not partition the host count; use
    /// [`Fabric::check`] to validate untrusted shapes without panicking.
    pub fn with_fabric(mut self, fabric: Fabric) -> Self {
        if let Err(why) = fabric.check(self.hosts) {
            panic!("{why}");
        }
        self.fabric = fabric;
        self
    }

    /// One-way switch-fabric latency between two (distinct) hosts.
    pub fn fabric_latency(&self, src_host: u32, dst_host: u32) -> Time {
        self.fabric
            .latency(self.inter_host_latency, src_host, dst_host)
    }

    /// Switch traversals between two (distinct) hosts: 1 when they share the
    /// lowest-tier switch, plus one per extra tier crossed. Symmetric.
    pub fn fabric_hops(&self, src_host: u32, dst_host: u32) -> u32 {
        self.fabric.hops(src_host, dst_host)
    }

    /// The minimum one-way switch-fabric latency over all distinct host
    /// pairs — the conservative lookahead bound for parallel simulation: a
    /// message handed to the fabric at time `t` cannot arrive at any other
    /// host before `t + min_latency()`. Returns [`Time::MAX`] for
    /// single-host topologies (no inter-host edge ⇒ unbounded lookahead).
    ///
    /// Computed analytically from the fabric shape — O(1) at any host count,
    /// no pair enumeration.
    pub fn min_latency(&self) -> Time {
        if self.hosts <= 1 {
            return Time::MAX;
        }
        self.fabric.floor(self.inter_host_latency, self.hosts)
    }

    /// Per-host-pair lookahead: a lower bound on the fabric delay of any
    /// message from `src_host` to `dst_host` (serialization and contention
    /// only add to it). Zero for a host to itself.
    pub fn lookahead(&self, src_host: u32, dst_host: u32) -> Time {
        if src_host == dst_host {
            Time::ZERO
        } else {
            self.fabric_latency(src_host, dst_host)
        }
    }

    /// XY-routed hop count between two tiles of the same host's mesh.
    pub fn mesh_hops(&self, a: u32, b: u32) -> u32 {
        let cols = self.mesh_cols.max(1);
        let (ra, ca) = (a / cols, a % cols);
        let (rb, cb) = (b / cols, b % cols);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }

    fn serialization(&self, bytes: u64) -> Time {
        Time::from_ps(bytes * 1000 / self.link_bytes_per_ns)
    }
}

impl Default for NocConfig {
    /// Paper Table 1: 8 hosts × 8 tiles over CXL.
    fn default() -> Self {
        Self::cxl(8, 8)
    }
}

/// The interconnect: computes message delivery times with link contention and
/// accounts traffic.
///
/// See the [crate-level documentation](crate) for the timing model and an
/// example.
#[derive(Debug, Clone)]
pub struct Noc {
    cfg: NocConfig,
    /// Precomputed per-pair fabric latency, host-major (`src * hosts + dst`,
    /// [`Time::ZERO`] on the diagonal). Computed once at [`Noc::new`] and
    /// shared by reference with every [`Noc::fork`] — the hot send path does
    /// a table load instead of re-deriving the fabric shape per message, and
    /// a 512-host sharded run holds one table, not one per partition.
    pair_lat: std::sync::Arc<[Time]>,
    egress_free: Vec<Time>,
    ingress_free: Vec<Time>,
    stats: TrafficStats,
    /// Installed fault plan, if any.
    faults: Option<FaultPlan>,
    /// Per-channel transmission counters for [`Noc::transmit_egress`],
    /// `pair_seq[src_host][dst_host]`, which number the (stateless) plan's
    /// per-message decisions. A channel counter does not depend on the
    /// interleaving of *other* channels' traffic, so fault decisions
    /// survive repartitioning the simulation. A source host's row is
    /// allocated on its first faulted send (see `pair_row`).
    pair_seq: Vec<Vec<u64>>,
    /// Opt-in per-pair flow accounting (see [`Noc::set_pair_accounting`]).
    pair_acct: bool,
    /// Per-pair flows, `pair_flows[src_host][dst_host]`. A source host's
    /// row is allocated on its first accounted send, so a sharded partition
    /// only ever builds its own host's row and a whole run holds at most
    /// `hosts²` entries across all partitions.
    pair_flows: Vec<Vec<PairFlow>>,
}

/// `rows[src]`, first allocated as `hosts` default entries: the hot path
/// indexes a dense row instead of hashing a `(src, dst)` key.
fn pair_row<T: Clone + Default>(rows: &mut [Vec<T>], src: u32, hosts: u32) -> &mut [T] {
    let row = &mut rows[src as usize];
    if row.is_empty() {
        *row = vec![T::default(); hosts as usize];
    }
    row
}

/// The fabric's verdict on the source-side half of a transmission (see
/// [`Noc::transmit_egress`]); times are port-arrival times at the
/// destination host, before ingress contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressDelivery {
    /// Reaches the destination port once; `faulted` is the injected delay.
    Deliver {
        /// Port-arrival time at the destination host.
        reach: Time,
        /// Injected extra delay beyond the clean arrival time.
        faulted: Time,
    },
    /// The fabric lost the message.
    Drop,
    /// Two copies reach the destination port (network duplication).
    Duplicate {
        /// Port-arrival time of the first copy.
        first: Time,
        /// Port-arrival time of the duplicate.
        second: Time,
    },
}

impl Noc {
    /// Creates an idle interconnect; precomputes the per-pair latency table
    /// (one `hosts × hosts` allocation for the whole simulation — partitions
    /// share it via [`Noc::fork`]).
    pub fn new(cfg: NocConfig) -> Self {
        let hosts = cfg.hosts as usize;
        let mut table = Vec::with_capacity(hosts * hosts);
        for s in 0..cfg.hosts {
            for d in 0..cfg.hosts {
                table.push(if s == d {
                    Time::ZERO
                } else {
                    cfg.fabric_latency(s, d)
                });
            }
        }
        Noc {
            pair_lat: table.into(),
            egress_free: vec![Time::ZERO; hosts],
            ingress_free: vec![Time::ZERO; hosts],
            stats: TrafficStats::default(),
            faults: None,
            pair_seq: vec![Vec::new(); hosts],
            pair_acct: false,
            pair_flows: vec![Vec::new(); hosts],
            cfg,
        }
    }

    /// A fresh idle interconnect over the same topology, sharing the
    /// precomputed pair-latency table by reference. Dynamic state (link
    /// schedules, statistics, fault counters, installed plan) starts empty;
    /// the pair-accounting switch is inherited. This is how the sharded
    /// runner builds per-partition fabrics without re-deriving — or
    /// duplicating — O(hosts²) latency state per partition.
    pub fn fork(&self) -> Noc {
        Noc {
            cfg: self.cfg,
            pair_lat: std::sync::Arc::clone(&self.pair_lat),
            egress_free: vec![Time::ZERO; self.cfg.hosts as usize],
            ingress_free: vec![Time::ZERO; self.cfg.hosts as usize],
            stats: TrafficStats::default(),
            faults: None,
            pair_seq: vec![Vec::new(); self.cfg.hosts as usize],
            pair_acct: self.pair_acct,
            pair_flows: vec![Vec::new(); self.cfg.hosts as usize],
        }
    }

    /// The configuration this interconnect was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Precomputed fabric latency between two hosts (table load; zero on the
    /// diagonal). Equals [`NocConfig::lookahead`] for every pair.
    #[inline]
    pub fn pair_latency(&self, src_host: u32, dst_host: u32) -> Time {
        self.pair_lat[(src_host * self.cfg.hosts + dst_host) as usize]
    }

    /// Enables (or disables) per-pair flow accounting. Off by default: the
    /// hot path then skips the flow row entirely. When on, every
    /// *inter-host* message is recorded once, at egress, in its source
    /// host's row — so a sharded run's partitions each fill only their own
    /// row, and [`Noc::absorb`] sums them to the monolithic flows with no
    /// double counting.
    pub fn set_pair_accounting(&mut self, on: bool) {
        self.pair_acct = on;
    }

    /// Whether per-pair flow accounting is enabled.
    pub fn pair_accounting(&self) -> bool {
        self.pair_acct
    }

    /// Recorded per-pair flows in `(src_host, dst_host)` order, one entry
    /// per pair that carried at least one message. Empty unless accounting
    /// was enabled.
    pub fn pair_flows_sorted(&self) -> Vec<(u32, u32, PairFlow)> {
        let mut v = Vec::new();
        for (s, row) in self.pair_flows.iter().enumerate() {
            for (d, &f) in row.iter().enumerate() {
                if f.msgs > 0 {
                    v.push((s as u32, d as u32, f));
                }
            }
        }
        v
    }

    /// Folds a partition's additive state into this interconnect: its
    /// traffic statistics (see [`TrafficStats::merge`]) and its per-pair
    /// flow rows. A row this interconnect never built is moved over whole.
    /// The sharded runner gathers its partitions with this.
    pub fn absorb(&mut self, part: Noc) {
        self.stats.merge(&part.stats);
        for (mine, theirs) in self.pair_flows.iter_mut().zip(part.pair_flows) {
            if mine.is_empty() {
                *mine = theirs;
            } else {
                for (m, t) in mine.iter_mut().zip(&theirs) {
                    m.merge(t);
                }
            }
        }
    }

    /// Traffic accounted so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Installs (or clears) a fault plan; subsequent
    /// [`Noc::transmit_egress`] calls consult it. [`Noc::send`],
    /// [`Noc::egress`] and [`Noc::ingress`] always model the clean fabric.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Mutable fault/transport counters (the runner's transport shim reports
    /// retransmissions and duplicate suppressions here so they ride
    /// [`TrafficStats`] into run results).
    pub fn fault_stats_mut(&mut self) -> &mut crate::traffic::FaultStats {
        &mut self.stats.faults
    }

    /// Like [`Noc::egress`], but subject to the installed fault plan: the
    /// source-side half of every transmission, which may drop, duplicate
    /// or delay the message. Without a plan this is exactly `egress` (one
    /// `None` branch — the zero-cost-when-disabled path). Fault decisions
    /// are numbered per `(src_host, dst_host)` channel (decorrelated by
    /// folding the pair index into the sequence), so a message's fate
    /// depends only on its channel and position — never on how concurrent
    /// traffic on other channels interleaves. Dropped messages still consume
    /// egress bandwidth; duplicates consume it twice, the copy serialized
    /// right behind the original and its lag added past the port (as a
    /// delayed copy's is). An inter-host copy
    /// still owes [`Noc::ingress`]. Charged at once on a delayed arrival
    /// time, it would hold the destination port for traffic that arrives
    /// before it: charge it at the clean arrival (`reach - faulted`) and
    /// add the delay after, or when the copy reaches the port.
    #[inline]
    pub fn transmit_egress(
        &mut self,
        now: Time,
        src: TileId,
        dst: TileId,
        bytes: u64,
        class: MsgClass,
    ) -> EgressDelivery {
        let clean = self.egress(now, src, dst, bytes, class);
        let Some(plan) = &self.faults else {
            return EgressDelivery::Deliver {
                reach: clean,
                faulted: Time::ZERO,
            };
        };
        let chan = &mut pair_row(&mut self.pair_seq, src.host, self.cfg.hosts)[dst.host as usize];
        let chan_seq = *chan;
        *chan += 1;
        let pairs = self.cfg.hosts as u64 * self.cfg.hosts as u64;
        let pair_idx = src.host as u64 * self.cfg.hosts as u64 + dst.host as u64;
        let seq = chan_seq * pairs + pair_idx;
        match plan.decide(seq, now, src.host, dst.host, class as usize) {
            FaultAction::Deliver { extra } => {
                if extra > Time::ZERO {
                    self.stats.faults.delayed += 1;
                }
                EgressDelivery::Deliver {
                    reach: clean + extra,
                    faulted: extra,
                }
            }
            FaultAction::Drop => {
                self.stats.faults.dropped += 1;
                EgressDelivery::Drop
            }
            FaultAction::Duplicate {
                extra,
                second_extra,
            } => {
                self.stats.faults.duplicated += 1;
                if extra > Time::ZERO {
                    self.stats.faults.delayed += 1;
                }
                // The duplicate is a real frame: account its bandwidth. It
                // serializes back to back with the original and lags after
                // the port, so it never reserves the link in the future
                // for frames the host sends meanwhile.
                let second = self.egress(now, src, dst, bytes, class) + second_extra;
                EgressDelivery::Duplicate {
                    first: clean + extra,
                    second: second.max(clean + extra),
                }
            }
        }
    }

    /// Sends `bytes` from `src` to `dst` at time `now`; returns the delivery
    /// time at `dst` and accounts the traffic under `class`.
    ///
    /// Messages from a tile to itself are delivered after one hop latency
    /// (local slice access is modeled by the component, not the NoC).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` references a host or tile outside the
    /// configured topology.
    pub fn send(
        &mut self,
        now: Time,
        src: TileId,
        dst: TileId,
        bytes: u64,
        class: MsgClass,
    ) -> Time {
        let reach = self.egress(now, src, dst, bytes, class);
        if src.host == dst.host {
            reach
        } else {
            self.ingress(reach, dst, bytes)
        }
    }

    /// First (source-side) half of a send: mesh to the local CXL/UPI port,
    /// egress-link serialization behind earlier departures, and the
    /// switch-fabric traversal. Returns when the frame reaches the
    /// destination host's ingress port; the traffic is accounted here.
    ///
    /// For an intra-host message there is no fabric stage and the return
    /// value is already the delivery time at the destination tile.
    ///
    /// [`Noc::send`] is exactly `egress` + [`Noc::ingress`]; the split lets
    /// a partitioned simulation run the two halves on the source and
    /// destination hosts' partitions respectively.
    #[inline]
    pub fn egress(
        &mut self,
        now: Time,
        src: TileId,
        dst: TileId,
        bytes: u64,
        class: MsgClass,
    ) -> Time {
        self.check(src);
        self.check(dst);
        let inter = src.host != dst.host;
        self.stats.record(class, bytes, inter);
        if !inter {
            let hops = self.cfg.mesh_hops(src.tile, dst.tile).max(1);
            return now + self.cfg.hop_latency * hops as u64;
        }
        if self.pair_acct {
            pair_row(&mut self.pair_flows, src.host, self.cfg.hosts)[dst.host as usize]
                .record(bytes, class);
        }
        // Mesh to the local CXL/UPI port.
        let to_port = self.cfg.mesh_hops(src.tile, self.cfg.port_tile) as u64;
        let at_port = now + self.cfg.hop_latency * to_port;
        // Egress link: serialize behind earlier departures from this host.
        let ser = self.cfg.serialization(bytes);
        let depart = at_port.max(self.egress_free[src.host as usize]);
        self.egress_free[src.host as usize] = depart + ser;
        // Switch-fabric traversal to the destination host's port.
        depart + ser + self.pair_latency(src.host, dst.host)
    }

    /// Second (destination-side) half of an inter-host send: ingress-link
    /// contention at the destination host plus the mesh from the port to the
    /// destination tile. `reach` is the port-arrival time returned by
    /// [`Noc::egress`].
    #[inline]
    pub fn ingress(&mut self, reach: Time, dst: TileId, bytes: u64) -> Time {
        let ser = self.cfg.serialization(bytes);
        let recv = reach.max(self.ingress_free[dst.host as usize]);
        self.ingress_free[dst.host as usize] = recv + ser;
        let from_port = self.cfg.mesh_hops(self.cfg.port_tile, dst.tile) as u64;
        recv + self.cfg.hop_latency * from_port
    }

    /// Latency of an uncontended message (no state change, no accounting).
    ///
    /// Useful for capacity planning and tests.
    pub fn uncontended_latency(&self, src: TileId, dst: TileId, bytes: u64) -> Time {
        if src.host == dst.host {
            let hops = self.cfg.mesh_hops(src.tile, dst.tile).max(1);
            return self.cfg.hop_latency * hops as u64;
        }
        let to_port = self.cfg.mesh_hops(src.tile, self.cfg.port_tile) as u64;
        let from_port = self.cfg.mesh_hops(self.cfg.port_tile, dst.tile) as u64;
        self.cfg.hop_latency * (to_port + from_port)
            + self.cfg.serialization(bytes)
            + self.pair_latency(src.host, dst.host)
    }

    fn check(&self, t: TileId) {
        assert!(
            t.host < self.cfg.hosts && t.tile < self.cfg.tiles_per_host,
            "tile {t:?} outside topology ({}x{})",
            self.cfg.hosts,
            self.cfg.tiles_per_host
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_flat_roundtrip() {
        for flat in 0..64 {
            let t = TileId::from_flat(flat, 8);
            assert_eq!(t.flat(8), flat);
        }
    }

    #[test]
    fn mesh_hops_xy() {
        let cfg = NocConfig::default();
        assert_eq!(cfg.mesh_hops(0, 0), 0);
        assert_eq!(cfg.mesh_hops(0, 3), 3); // same row
        assert_eq!(cfg.mesh_hops(0, 4), 1); // next row
        assert_eq!(cfg.mesh_hops(0, 7), 4); // opposite corner of 2x4
    }

    #[test]
    fn intra_host_latency_scales_with_hops() {
        let mut noc = Noc::new(NocConfig::default());
        let t0 = noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(0, 1),
            64,
            MsgClass::Data,
        );
        let t1 = noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(0, 7),
            64,
            MsgClass::Data,
        );
        assert_eq!(t0, Time::from_ns(5));
        assert_eq!(t1, Time::from_ns(20));
        assert_eq!(noc.stats().inter_bytes(), 0);
        assert_eq!(noc.stats().intra_bytes(), 128);
    }

    #[test]
    fn inter_host_includes_switch_latency() {
        let mut noc = Noc::new(NocConfig::cxl(2, 8));
        let arrive = noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(1, 0),
            64,
            MsgClass::Data,
        );
        // port is tile 0 on both sides: pure switch latency + serialization
        assert_eq!(arrive, Time::from_ns(150) + Time::from_ps(64 * 1000 / 64));
        assert_eq!(noc.stats().inter_bytes(), 64);
    }

    #[test]
    fn upi_is_faster_than_cxl() {
        let mut cxl = Noc::new(NocConfig::cxl(2, 8));
        let mut upi = Noc::new(NocConfig::upi(2, 8));
        let a = cxl.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(1, 0),
            16,
            MsgClass::Ack,
        );
        let b = upi.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(1, 0),
            16,
            MsgClass::Ack,
        );
        assert!(b < a);
    }

    #[test]
    fn egress_serialization_backs_up() {
        let mut noc = Noc::new(NocConfig::cxl(2, 8));
        let big = 64 * 1024; // 64 KB: 1 us serialization at 64 B/ns
        let first = noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(1, 0),
            big,
            MsgClass::Data,
        );
        let second = noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(1, 0),
            big,
            MsgClass::Data,
        );
        assert!(second >= first + Time::from_us(1));
    }

    #[test]
    fn fifo_per_channel() {
        let mut noc = Noc::new(NocConfig::cxl(4, 8));
        let mut last = Time::ZERO;
        for i in 0..20u64 {
            let t = noc.send(
                Time::from_ns(i),
                TileId::new(0, 3),
                TileId::new(2, 5),
                16 + (i % 5) * 64,
                MsgClass::Data,
            );
            assert!(t >= last, "FIFO violated at msg {i}");
            last = t;
        }
    }

    #[test]
    fn uncontended_matches_first_send() {
        let mut noc = Noc::new(NocConfig::cxl(2, 8));
        let est = noc.uncontended_latency(TileId::new(0, 2), TileId::new(1, 6), 128);
        let real = noc.send(
            Time::ZERO,
            TileId::new(0, 2),
            TileId::new(1, 6),
            128,
            MsgClass::Data,
        );
        assert_eq!(est, real);
    }

    #[test]
    fn pod_hierarchy_latencies() {
        let cfg = NocConfig::cxl(8, 8).with_pods(PodConfig {
            hosts_per_pod: 4,
            pod_latency: Time::from_ns(60),
            root_latency: Time::from_ns(180),
        });
        let mut noc = Noc::new(cfg);
        // Same pod: one pod-switch traversal.
        let near = noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(1, 0),
            64,
            MsgClass::Data,
        );
        // Cross pod: pod + root.
        let far = noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(5, 0),
            64,
            MsgClass::Data,
        );
        assert_eq!(near, Time::from_ns(60) + Time::from_ps(1000));
        assert!(far >= near + Time::from_ns(180));
        assert_eq!(cfg.fabric_latency(0, 3), Time::from_ns(60));
        assert_eq!(cfg.fabric_latency(0, 4), Time::from_ns(240));
    }

    #[test]
    #[should_panic(expected = "pods must partition")]
    fn bad_pod_partition_panics() {
        let _ = NocConfig::cxl(8, 8).with_pods(PodConfig {
            hosts_per_pod: 3,
            pod_latency: Time::from_ns(1),
            root_latency: Time::from_ns(1),
        });
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn bad_tile_panics() {
        let mut noc = Noc::new(NocConfig::cxl(2, 8));
        noc.send(
            Time::ZERO,
            TileId::new(5, 0),
            TileId::new(0, 0),
            1,
            MsgClass::Ctrl,
        );
    }

    #[test]
    fn min_latency_is_the_fabric_floor() {
        // Flat switch: the inter-host latency itself.
        assert_eq!(NocConfig::cxl(8, 8).min_latency(), Time::from_ns(150));
        assert_eq!(NocConfig::upi(4, 8).min_latency(), Time::from_ns(50));
        assert_eq!(
            NocConfig::cxl(8, 8)
                .with_inter_host_latency(Time::from_ns(300))
                .min_latency(),
            Time::from_ns(300)
        );
        // Single host: no inter-host edge at all.
        assert_eq!(NocConfig::cxl(1, 8).min_latency(), Time::MAX);
        // Pods with >=2 hosts each: some pair is pod-local.
        let pods = NocConfig::cxl(8, 8).with_pods(PodConfig {
            hosts_per_pod: 4,
            pod_latency: Time::from_ns(60),
            root_latency: Time::from_ns(180),
        });
        assert_eq!(pods.min_latency(), Time::from_ns(60));
        // Degenerate single-host pods: every pair crosses the root.
        let lone = NocConfig::cxl(4, 8).with_pods(PodConfig {
            hosts_per_pod: 1,
            pod_latency: Time::from_ns(60),
            root_latency: Time::from_ns(180),
        });
        assert_eq!(lone.min_latency(), Time::from_ns(240));
    }

    #[test]
    fn min_latency_lower_bounds_every_pair() {
        for cfg in [
            NocConfig::cxl(8, 8),
            NocConfig::upi(6, 8),
            NocConfig::cxl(8, 8).with_pods(PodConfig {
                hosts_per_pod: 2,
                pod_latency: Time::from_ns(40),
                root_latency: Time::from_ns(200),
            }),
        ] {
            let floor = cfg.min_latency();
            for s in 0..cfg.hosts {
                for d in 0..cfg.hosts {
                    if s != d {
                        assert!(
                            cfg.lookahead(s, d) >= floor,
                            "pair ({s},{d}) under the floor"
                        );
                        assert_eq!(cfg.lookahead(s, d), cfg.fabric_latency(s, d));
                    }
                }
            }
            assert_eq!(cfg.lookahead(0, 0), Time::ZERO);
        }
    }

    #[test]
    fn lookahead_bounds_real_deliveries() {
        // No send may arrive at another host earlier than now + lookahead.
        let mut noc = Noc::new(NocConfig::cxl(4, 8));
        let floor = noc.config().min_latency();
        for i in 0..40u64 {
            let now = Time::from_ns(i * 3);
            let src = TileId::new((i % 4) as u32, (i % 8) as u32);
            let dst = TileId::new(((i + 1) % 4) as u32, ((i * 3) % 8) as u32);
            let at = noc.send(now, src, dst, 16 + (i % 7) * 64, MsgClass::Data);
            assert!(at >= now + floor, "msg {i} beat the lookahead");
        }
    }

    #[test]
    fn egress_plus_ingress_equals_send() {
        // The split halves must reproduce `send` exactly, state and all.
        let mut whole = Noc::new(NocConfig::cxl(4, 8));
        let mut split = Noc::new(NocConfig::cxl(4, 8));
        for i in 0..60u64 {
            let now = Time::from_ns(i * 2);
            let src = TileId::new((i % 4) as u32, (i % 8) as u32);
            let dst = TileId::new(((i + 2) % 4) as u32, ((i * 5) % 8) as u32);
            let bytes = 16 + (i % 9) * 32;
            let a = whole.send(now, src, dst, bytes, MsgClass::Data);
            let reach = split.egress(now, src, dst, bytes, MsgClass::Data);
            let b = if src.host == dst.host {
                reach
            } else {
                split.ingress(reach, dst, bytes)
            };
            assert_eq!(a, b, "msg {i}");
        }
        assert_eq!(whole.stats(), split.stats());
    }

    #[test]
    fn transmit_egress_is_channel_order_independent() {
        use cord_sim::fault::{FaultPlan, FaultRule};
        let plan = || {
            FaultPlan::new(41).with_rule(FaultRule {
                drop: 0.25,
                dup: 0.25,
                jitter: Time::from_ns(20),
                ..FaultRule::default()
            })
        };
        // Drive two channels interleaved, then the same two back-to-back:
        // each channel's fault verdict stream must be identical, because
        // decisions are numbered per channel rather than globally.
        let fate = |d: EgressDelivery| match d {
            EgressDelivery::Deliver { faulted, .. } => (0u8, faulted),
            EgressDelivery::Drop => (1, Time::ZERO),
            EgressDelivery::Duplicate { .. } => (2, Time::ZERO),
        };
        let chan = |i: u64| {
            if i.is_multiple_of(2) {
                (TileId::new(0, 1), TileId::new(1, 1))
            } else {
                (TileId::new(2, 1), TileId::new(3, 1))
            }
        };
        let mut interleaved = Noc::new(NocConfig::cxl(4, 8));
        interleaved.set_faults(Some(plan()));
        let mut inter_fates = [Vec::new(), Vec::new()];
        for i in 0..200u64 {
            let (src, dst) = chan(i);
            let d =
                interleaved.transmit_egress(Time::from_ns(i * 50), src, dst, 64, MsgClass::Data);
            inter_fates[(i % 2) as usize].push(fate(d));
        }
        for which in 0..2u64 {
            let mut alone = Noc::new(NocConfig::cxl(4, 8));
            alone.set_faults(Some(plan()));
            let (src, dst) = chan(which);
            let fates: Vec<_> = (0..100u64)
                .map(|j| {
                    let now = Time::from_ns((j * 2 + which) * 50);
                    fate(alone.transmit_egress(now, src, dst, 64, MsgClass::Data))
                })
                .collect();
            assert_eq!(fates, inter_fates[which as usize], "channel {which}");
        }
    }

    #[test]
    fn traffic_stats_merge_sums_partitions() {
        let mut a = TrafficStats::default();
        let mut b = TrafficStats::default();
        a.record(MsgClass::Data, 100, true);
        a.record(MsgClass::Ack, 16, false);
        b.record(MsgClass::Data, 50, true);
        b.faults.dropped = 3;
        b.faults.retransmits = 2;
        let mut sum = TrafficStats::default();
        sum.merge(&a);
        sum.merge(&b);
        assert_eq!(sum[MsgClass::Data].inter_bytes, 150);
        assert_eq!(sum[MsgClass::Ack].intra_msgs, 1);
        assert_eq!(sum.faults.dropped, 3);
        assert_eq!(sum.faults.retransmits, 2);
        assert_eq!(sum.inter_msgs(), 2);
    }

    #[test]
    fn transmit_without_plan_matches_send() {
        let mut faulted = Noc::new(NocConfig::cxl(2, 8));
        let mut clean = Noc::new(NocConfig::cxl(2, 8));
        let (src, dst) = (TileId::new(0, 0), TileId::new(1, 3));
        for i in 0..8u64 {
            let t = Time::from_ns(i * 10);
            let EgressDelivery::Deliver {
                reach,
                faulted: extra,
            } = faulted.transmit_egress(t, src, dst, 64, MsgClass::Data)
            else {
                panic!("no plan, yet the message was not delivered once");
            };
            assert_eq!(extra, Time::ZERO);
            let at = clean.send(t, src, dst, 64, MsgClass::Data);
            assert_eq!(faulted.ingress(reach, dst, 64), at);
        }
        assert_eq!(faulted.stats(), clean.stats());
        assert!(!faulted.stats().faults.any());
    }

    #[test]
    fn transmit_accounts_drops_dups_and_delays() {
        use cord_sim::fault::{FaultPlan, FaultRule};
        let plan = FaultPlan::new(7).with_rule(FaultRule {
            drop: 0.3,
            dup: 0.3,
            jitter: Time::from_ns(50),
            ..FaultRule::default()
        });
        let mut noc = Noc::new(NocConfig::cxl(2, 8));
        noc.set_faults(Some(plan));
        let (mut drops, mut dups) = (0u64, 0u64);
        for i in 0..200u64 {
            let now = Time::from_ns(i * 100);
            match noc.transmit_egress(
                now,
                TileId::new(0, 0),
                TileId::new(1, 0),
                64,
                MsgClass::Data,
            ) {
                EgressDelivery::Drop => drops += 1,
                EgressDelivery::Duplicate { first, second } => {
                    dups += 1;
                    assert!(second >= first);
                }
                EgressDelivery::Deliver { reach, faulted } => {
                    assert!(reach >= now + faulted);
                }
            }
        }
        assert!(drops > 0 && dups > 0, "drops={drops} dups={dups}");
        let f = noc.stats().faults;
        assert_eq!(f.dropped, drops);
        assert_eq!(f.duplicated, dups);
        assert!(f.delayed > 0);
        // Duplicates consume bandwidth twice; drops still consume it once.
        assert_eq!(noc.stats().inter_msgs(), 200 + dups);
    }

    /// A duplicated frame's copy serializes right behind the original and
    /// lags past the port: a frame the host sends 1 ns later departs within
    /// one serialization instead of queueing behind the copy's lag, and
    /// the copy's bytes still count.
    #[test]
    fn duplicate_does_not_reserve_the_egress_link() {
        use cord_sim::fault::{FaultPlan, FaultRule};
        let cfg = NocConfig::cxl(2, 8);
        let (src, dst) = (TileId::new(0, 0), TileId::new(1, 0));
        let mut noc = Noc::new(cfg);
        noc.set_faults(Some(FaultPlan::new(3).with_rule(FaultRule {
            dup: 1.0,
            ..FaultRule::default()
        })));
        let t0 = Time::from_ns(100);
        let EgressDelivery::Duplicate { first, second } =
            noc.transmit_egress(t0, src, dst, 64, MsgClass::Data)
        else {
            panic!("a dup-only plan duplicates every frame");
        };
        assert!(second > first, "the copy lags the original");
        // The next frame's clean reach: behind both serializations at
        // most, never behind the copy's lag.
        let ser = cfg.serialization(64);
        let mut clean = Noc::new(cfg);
        let alone = clean.egress(t0 + Time::from_ns(1), src, dst, 64, MsgClass::Data);
        let EgressDelivery::Duplicate { first: next, .. } =
            noc.transmit_egress(t0 + Time::from_ns(1), src, dst, 64, MsgClass::Data)
        else {
            panic!("a dup-only plan duplicates every frame");
        };
        assert!(
            next <= alone + ser + ser,
            "next frame reaches at {next}, clean {alone}, one serialization {ser}"
        );
        assert!(next < second, "the next frame overtakes the lagging copy");
        let stats = noc.stats();
        assert_eq!(stats[MsgClass::Data].inter_msgs, 4, "both copies counted");
        assert_eq!(stats[MsgClass::Data].inter_bytes, 4 * 64);
        assert_eq!(stats.faults.duplicated, 2);
    }

    #[test]
    fn fabric_grammar_round_trips() {
        for s in [
            "flat",
            "pods 4 60 180",
            "fattree 4 4 40 120 400",
            "dragonfly 8 50 300",
        ] {
            let f = Fabric::parse(s).unwrap();
            assert_eq!(f.to_string(), s);
            assert_eq!(Fabric::parse(&f.to_string()).unwrap(), f);
        }
        assert!(Fabric::parse("torus 4 4").is_err());
        assert!(Fabric::parse("pods x 60 180").is_err());
        assert!(Fabric::parse("pods 4 60").is_err());
        assert!(Fabric::parse("").is_err());
    }

    #[test]
    fn fabric_grammar_rejects_out_of_range_numbers() {
        // Host counts past u32 were truncated (2^32 + 4 parsed as 4).
        let big = u64::from(u32::MAX) + 5;
        assert!(Fabric::parse(&format!("pods {big} 60 180")).is_err());
        assert!(Fabric::parse(&format!("fattree 4 {big} 40 120 400")).is_err());
        assert!(Fabric::parse(&format!("dragonfly {big} 50 300")).is_err());
        let max = u32::MAX;
        assert!(Fabric::parse(&format!("pods {max} 60 180")).is_ok());
        // Latencies whose picosecond value overflows u64 overflowed
        // `Time::from_ns`.
        let huge = u64::MAX / 1_000 + 1;
        assert!(Fabric::parse(&format!("pods 4 {huge} 180")).is_err());
        assert!(Fabric::parse(&format!("fattree 4 4 40 120 {huge}")).is_err());
        assert!(Fabric::parse(&format!("dragonfly 8 50 {huge}")).is_err());
        assert!(Fabric::parse(&format!("dragonfly 8 50 {}", u64::MAX)).is_err());
        let edge = u64::MAX / 1_000;
        let f = Fabric::parse(&format!("pods 4 60 {edge}")).unwrap();
        assert_eq!(f.to_string(), format!("pods 4 60 {edge}"));
    }

    #[test]
    fn fabric_check_requires_even_partition() {
        let pods = Fabric::parse("pods 4 60 180").unwrap();
        assert!(pods.check(8).is_ok());
        assert!(pods.check(6).is_err());
        let tree = Fabric::parse("fattree 4 4 40 120 400").unwrap();
        assert!(tree.check(32).is_ok()); // 2 pods of 16
        assert!(tree.check(24).is_err());
        let fly = Fabric::parse("dragonfly 8 50 300").unwrap();
        assert!(fly.check(64).is_ok());
        assert!(fly.check(60).is_err());
        assert!(Fabric::parse("pods 0 60 180").unwrap().check(8).is_err());
    }

    #[test]
    fn fattree_latency_tiers() {
        // 32 hosts: edges of 4 hosts, pods of 4 edges (16 hosts), 2 pods.
        let cfg = NocConfig::cxl(32, 8).with_fabric(Fabric::FatTree(FatTreeConfig {
            hosts_per_edge: 4,
            edges_per_pod: 4,
            edge_latency: Time::from_ns(40),
            aggr_latency: Time::from_ns(120),
            core_latency: Time::from_ns(400),
        }));
        // Same edge switch.
        assert_eq!(cfg.fabric_latency(0, 3), Time::from_ns(40));
        assert_eq!(cfg.fabric_hops(0, 3), 1);
        // Same pod, different edge.
        assert_eq!(cfg.fabric_latency(0, 4), Time::from_ns(160));
        assert_eq!(cfg.fabric_hops(0, 4), 2);
        // Cross pod.
        assert_eq!(cfg.fabric_latency(0, 16), Time::from_ns(560));
        assert_eq!(cfg.fabric_hops(0, 16), 3);
        assert_eq!(cfg.min_latency(), Time::from_ns(40));
    }

    #[test]
    fn dragonfly_latency_tiers() {
        let cfg = NocConfig::cxl(64, 8).with_fabric(Fabric::Dragonfly(DragonflyConfig {
            hosts_per_group: 8,
            local_latency: Time::from_ns(50),
            global_latency: Time::from_ns(300),
        }));
        // Same group: one local link.
        assert_eq!(cfg.fabric_latency(0, 7), Time::from_ns(50));
        assert_eq!(cfg.fabric_hops(0, 7), 1);
        // Cross group: local + global + local.
        assert_eq!(cfg.fabric_latency(0, 8), Time::from_ns(400));
        assert_eq!(cfg.fabric_hops(0, 8), 3);
        assert_eq!(cfg.min_latency(), Time::from_ns(50));
    }

    #[test]
    fn tile_flat_roundtrip_at_scale() {
        // 512 hosts × 16 tiles: the full flat index space round-trips.
        for flat in 0..512 * 16 {
            let t = TileId::from_flat(flat, 16);
            assert!(t.host < 512 && t.tile < 16);
            assert_eq!(t.flat(16), flat);
        }
    }

    #[test]
    fn min_latency_lower_bounds_every_pair_on_every_fabric() {
        // Exhaustive over all pairs at 512 hosts for each fabric family —
        // the analytic floor must never exceed a real pair latency, routes
        // must be symmetric, and hops must grow with latency tiers.
        let shapes = [
            "flat",
            "pods 16 60 180",
            "pods 1 60 180",
            "fattree 8 8 40 120 400",
            "fattree 1 8 40 120 400",
            "fattree 1 1 40 120 400",
            "dragonfly 32 50 300",
            "dragonfly 1 50 300",
        ];
        for shape in shapes {
            let cfg = NocConfig::cxl(512, 8).with_fabric(Fabric::parse(shape).unwrap());
            let floor = cfg.min_latency();
            let mut hit_floor = false;
            for s in 0..cfg.hosts {
                for d in 0..cfg.hosts {
                    if s == d {
                        assert_eq!(cfg.lookahead(s, s), Time::ZERO);
                        continue;
                    }
                    let lat = cfg.fabric_latency(s, d);
                    assert!(lat >= floor, "{shape}: pair ({s},{d}) under the floor");
                    hit_floor |= lat == floor;
                    assert_eq!(lat, cfg.fabric_latency(d, s), "{shape}: asymmetric pair");
                    assert_eq!(
                        cfg.fabric_hops(s, d),
                        cfg.fabric_hops(d, s),
                        "{shape}: asymmetric hops"
                    );
                }
            }
            assert!(hit_floor, "{shape}: floor not achieved by any pair");
        }
    }

    #[test]
    fn pair_table_matches_fabric_latency_and_is_shared_by_fork() {
        let cfg =
            NocConfig::cxl(32, 8).with_fabric(Fabric::parse("fattree 4 2 40 120 400").unwrap());
        let noc = Noc::new(cfg);
        for s in 0..32 {
            for d in 0..32 {
                let want = if s == d {
                    Time::ZERO
                } else {
                    cfg.fabric_latency(s, d)
                };
                assert_eq!(noc.pair_latency(s, d), want);
            }
        }
        let forked = noc.fork();
        assert!(std::sync::Arc::ptr_eq(&noc.pair_lat, &forked.pair_lat));
        assert_eq!(forked.stats(), &TrafficStats::default());
    }

    #[test]
    fn pair_accounting_is_sparse_and_opt_in() {
        let mut noc = Noc::new(NocConfig::cxl(512, 8));
        // Off by default: nothing recorded.
        noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(9, 0),
            64,
            MsgClass::Data,
        );
        assert!(noc.pair_flows_sorted().is_empty());
        noc.set_pair_accounting(true);
        noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(9, 0),
            64,
            MsgClass::Data,
        );
        noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(9, 0),
            16,
            MsgClass::Notify,
        );
        noc.send(
            Time::ZERO,
            TileId::new(3, 0),
            TileId::new(0, 0),
            16,
            MsgClass::ReqNotify,
        );
        // Intra-host traffic is not pair-accounted.
        noc.send(
            Time::ZERO,
            TileId::new(0, 0),
            TileId::new(0, 5),
            64,
            MsgClass::Data,
        );
        let flows = noc.pair_flows_sorted();
        assert_eq!(flows.len(), 2, "only touched pairs get entries");
        assert_eq!(flows[0].0, 0);
        assert_eq!(flows[0].1, 9);
        assert_eq!(flows[0].2.msgs, 2);
        assert_eq!(flows[0].2.bytes, 80);
        assert_eq!(flows[0].2.notify_msgs, 1);
        assert_eq!(flows[1].2.notify_msgs, 1);
        // Absorbing a copy sums counters pair by pair.
        let mut whole = noc.fork();
        whole.absorb(noc.clone());
        whole.absorb(noc.clone());
        let doubled = whole.pair_flows_sorted();
        assert_eq!(doubled.len(), 2);
        assert_eq!(doubled[0].2.msgs, 4);
        assert_eq!(doubled[1].2.bytes, 32);
        assert_eq!(whole.stats().inter_msgs(), 2 * noc.stats().inter_msgs());

        // Two partitions, each sending only from its own host, absorbed into
        // a parent must report exactly the flows of one Noc that made every
        // send — the sharded runner's gather.
        let cfg = NocConfig::cxl(8, 8).with_fabric(Fabric::parse("dragonfly 4 50 300").unwrap());
        let mut whole = Noc::new(cfg);
        whole.set_pair_accounting(true);
        let mut parent = whole.fork();
        let mut parts = [parent.fork(), parent.fork()];
        let hosts = [2u32, 5];
        for i in 0..40u64 {
            let p = (i % 2) as usize;
            let src = TileId::new(hosts[p], (i % 8) as u32);
            let dst = TileId::new(((i * 3 + 1) % 8) as u32, (i % 5) as u32);
            let class = if i % 3 == 0 {
                MsgClass::Notify
            } else {
                MsgClass::Data
            };
            let now = Time::from_ns(i * 7);
            parts[p].egress(now, src, dst, 16 + i, class);
            whole.egress(now, src, dst, 16 + i, class);
        }
        for (part, &h) in parts.iter().zip(&hosts) {
            assert!(
                part.pair_flows_sorted().iter().all(|&(s, _, _)| s == h),
                "a partition records only its own source host"
            );
            assert!(part
                .pair_flows
                .iter()
                .enumerate()
                .all(|(s, row)| row.is_empty() || s as u32 == h));
        }
        for part in parts {
            parent.absorb(part);
        }
        assert_eq!(parent.pair_flows_sorted(), whole.pair_flows_sorted());
        assert!(!whole.pair_flows_sorted().is_empty());
        assert_eq!(parent.stats(), whole.stats());
    }

    #[test]
    fn transmit_stream_is_deterministic() {
        use cord_sim::fault::{FaultPlan, FaultRule};
        let plan = || {
            FaultPlan::new(99).with_rule(FaultRule {
                drop: 0.2,
                dup: 0.2,
                jitter: Time::from_ns(30),
                ..FaultRule::default()
            })
        };
        let run = |plan: FaultPlan| {
            let mut noc = Noc::new(NocConfig::cxl(2, 8));
            noc.set_faults(Some(plan));
            (0..100u64)
                .map(|i| {
                    noc.transmit_egress(
                        Time::from_ns(i * 100),
                        TileId::new(0, 0),
                        TileId::new(1, 0),
                        64,
                        MsgClass::Notify,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(plan()), run(plan()));
    }
}
