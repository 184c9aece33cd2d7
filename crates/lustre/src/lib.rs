//! # lustre — a Lustre-style parallel filesystem
//!
//! The parallel-filesystem substrate the paper's HPC clusters provide: a
//! metadata server ([`mds`]) owning the namespace and file layouts, object
//! storage servers ([`oss`]) each fronting several OSTs (RAID-backed
//! [`storesim::ObjectStore`]s), and a client ([`client`]) that stripes file
//! data across OSTs with a bounded number of RPCs in flight per OST.
//!
//! All servers are real simulated processes with mailboxes on the fabric,
//! so OSS contention — many compute nodes hammering few storage servers,
//! the effect that makes Lustre throughput flatten at scale — emerges from
//! queueing rather than being scripted.

#![warn(missing_docs)]

pub mod client;
pub mod mds;
pub mod oss;

use std::rc::Rc;
use std::time::Duration;

use netsim::{Fabric, NodeId, Switchboard, TransportProfile};
use simkit::dur;

pub use client::{LustreClient, LustreError, LustreFile};
pub use mds::{FileLayout, Mds, MdsError};
pub use oss::{Oss, OssMsg};

/// Cluster-wide Lustre configuration.
#[derive(Debug, Clone, Copy)]
pub struct LustreConfig {
    /// Stripe size in bytes (default 1 MiB).
    pub stripe_size: u64,
    /// OSTs per file (stripe count; default 4).
    pub stripe_count: usize,
    /// Number of OSS server nodes.
    pub oss_count: usize,
    /// OSTs attached to each OSS.
    pub osts_per_oss: usize,
    /// Streaming rate of one OST's backing RAID array (bytes/s).
    pub ost_rate: f64,
    /// Per-op positioning latency of an OST array (RAID controllers hide
    /// most spindle seeks behind their write-back cache).
    pub ost_access: Duration,
    /// Capacity per OST.
    pub ost_capacity: u64,
    /// MDS service time per metadata operation.
    pub mds_service: Duration,
    /// Max concurrent RPCs a client keeps in flight per OST.
    pub max_rpcs_in_flight: usize,
    /// LNET transport profile (o2ib: near-verbs performance).
    pub transport: TransportProfile,
    /// Client-side per-byte CPU rate (kernel client, page-cache copies).
    pub client_cpu_rate: f64,
}

impl Default for LustreConfig {
    fn default() -> Self {
        LustreConfig {
            stripe_size: 1 << 20,
            stripe_count: 4,
            oss_count: 8,
            osts_per_oss: 2,
            ost_rate: 450e6,
            ost_access: dur::us(500),
            ost_capacity: 4 << 40,
            mds_service: dur::us(100),
            max_rpcs_in_flight: 8,
            client_cpu_rate: 1.2e9,
            transport: TransportProfile {
                name: "o2ib-lnet",
                latency: dur::us(3),
                per_msg_overhead: dur::us(2),
                bandwidth: 3.0e9,
            },
        }
    }
}

/// A deployed Lustre filesystem: MDS + OSSes wired to a fabric, plus the
/// node ids they occupy.
pub struct LustreCluster {
    /// Cluster configuration.
    pub config: LustreConfig,
    /// The metadata server.
    pub mds: Rc<Mds>,
    /// Object storage servers in OST-index order.
    pub osses: Vec<Rc<Oss>>,
    /// Shared OSS switchboard.
    pub oss_net: Rc<Switchboard<OssMsg>>,
    /// Shared MDS switchboard.
    pub mds_net: Rc<Switchboard<mds::MdsMsg>>,
}

impl LustreCluster {
    /// Deploy a filesystem on `fabric`, creating fresh nodes for the MDS
    /// and each OSS (so compute nodes keep their ids).
    pub fn deploy(fabric: &Rc<Fabric>, config: LustreConfig) -> Rc<LustreCluster> {
        assert!(config.oss_count > 0 && config.osts_per_oss > 0);
        assert!(config.stripe_size > 0);
        let mds_node = fabric.add_node();
        let mds_net = Switchboard::new(Rc::clone(fabric), config.transport);
        let oss_net = Switchboard::new(Rc::clone(fabric), config.transport);
        let total_osts = config.oss_count * config.osts_per_oss;
        let mds = Mds::spawn(Rc::clone(&mds_net), mds_node, total_osts, config);
        let osses: Vec<Rc<Oss>> = (0..config.oss_count)
            .map(|i| {
                let node = fabric.add_node();
                Oss::spawn(Rc::clone(&oss_net), node, i, config)
            })
            .collect();
        Rc::new(LustreCluster {
            config,
            mds,
            osses,
            oss_net,
            mds_net,
        })
    }

    /// Node hosting OST `ost_index`, and the OSS-local OST slot.
    pub fn ost_location(&self, ost_index: usize) -> (NodeId, usize) {
        let oss = ost_index / self.config.osts_per_oss;
        let slot = ost_index % self.config.osts_per_oss;
        (self.osses[oss].node(), slot)
    }

    /// Total number of OSTs.
    pub fn total_osts(&self) -> usize {
        self.config.oss_count * self.config.osts_per_oss
    }

    /// Make a client for a compute node.
    pub fn client(self: &Rc<Self>, node: NodeId) -> LustreClient {
        LustreClient::new(Rc::clone(self), node)
    }

    /// Aggregate bytes stored across all OSTs.
    pub fn stored_bytes(&self) -> u64 {
        self.osses.iter().map(|o| o.stored_bytes()).sum()
    }
}
