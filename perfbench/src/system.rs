//! Stands the system up in-process behind real `qcluster-net` TCP.
//!
//! - Single-node workloads: one memory-only node.
//! - `cluster_rw`: the `soak --cluster` shape. Three partitions of
//!   durable nodes behind one [`Router`], the ingest partition
//!   replicated 3×, `StaleOk { max_lag: 64 }` reads, background
//!   anti-entropy. The router takes the ingest stream.

use crate::workload::Spec;
use qcluster_net::{Server, ServerConfig};
use qcluster_router::{
    AntiEntropyHandle, Partition, ReadPreference, Router, RouterConfig, ShardMap,
};
use qcluster_service::{Service, ServiceConfig, StoreConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Interval of the router's background anti-entropy sweep (the soak's).
const ANTI_ENTROPY_EVERY: Duration = Duration::from_millis(500);

/// One in-process node behind its own TCP server.
pub struct Node {
    /// The node's service (read in-process only for per-request
    /// server-side deltas and for the replay's shard handles).
    pub service: Arc<Service>,
    /// Where the node listens.
    pub addr: SocketAddr,
    /// Global id of the node's first point.
    pub id_base: usize,
    server: Server,
}

impl Node {
    fn bind(service: Service, id_base: usize) -> Result<Node, String> {
        let service = Arc::new(service);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Node {
            addr: server.local_addr(),
            service,
            id_base,
            server,
        })
    }
}

/// A running system.
pub struct System {
    /// Nodes serving the feedback loop: one, or every cluster replica.
    pub nodes: Vec<Node>,
    /// The router, for `cluster_rw`.
    pub router: Option<Arc<Router>>,
    anti_entropy: Option<AntiEntropyHandle>,
    work: PathBuf,
}

impl System {
    /// Stands the workload's system up, keeping durable state under
    /// `work` (a fresh directory, removed by [`System::shutdown`]).
    ///
    /// # Errors
    ///
    /// Service construction, bind, or router failures.
    pub fn start(spec: &Spec, points: &[Vec<f64>], work: &Path) -> Result<System, String> {
        std::fs::create_dir_all(work).map_err(|e| format!("work dir {}: {e}", work.display()))?;
        let mut system = System {
            nodes: Vec::new(),
            router: None,
            anti_entropy: None,
            work: work.to_path_buf(),
        };
        if spec.cluster {
            system.start_cluster(points)?;
        } else {
            let config = ServiceConfig {
                shard_kind: spec.shard_kind,
                ..ServiceConfig::default()
            };
            let service = Service::new(points, config).map_err(|e| format!("service: {e}"))?;
            system.nodes.push(Node::bind(service, 0)?);
        }
        Ok(system)
    }

    fn durable(&self, points: &[Vec<f64>], label: &str) -> Result<Service, String> {
        let dir = self.work.join(label);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Service::open_durable(
            &dir,
            points,
            ServiceConfig::default(),
            StoreConfig::default(),
        )
        .map_err(|e| format!("open_durable {}: {e}", dir.display()))
    }

    fn start_cluster(&mut self, points: &[Vec<f64>]) -> Result<(), String> {
        let third = points.len() / 3;
        let bases = [0, third, 2 * third];
        let mut partitions = Vec::new();
        for (p, &id_base) in bases.iter().enumerate() {
            let end = bases.get(p + 1).copied().unwrap_or(points.len());
            // The last partition is unbounded above, so it owns live
            // writes; it is the one replicated for majority acks.
            let copies = if p + 1 == bases.len() { 3 } else { 1 };
            let mut replicas = Vec::new();
            for r in 0..copies {
                let service = self.durable(&points[id_base..end], &format!("p{p}r{r}"))?;
                let node = Node::bind(service, id_base)?;
                replicas.push(node.addr);
                self.nodes.push(node);
            }
            partitions.push(Partition { id_base, replicas });
        }
        let map = ShardMap::new(partitions).map_err(|e| format!("shard map: {e}"))?;
        let config = RouterConfig {
            read_preference: ReadPreference::StaleOk { max_lag: 64 },
            ..RouterConfig::default()
        };
        let router = Arc::new(Router::new(map, config).map_err(|e| format!("router: {e}"))?);
        self.anti_entropy = Some(router.start_anti_entropy(ANTI_ENTROPY_EVERY));
        self.router = Some(router);
        Ok(())
    }

    /// Base-corpus point `id`, read from the node whose partition
    /// holds it.
    pub fn point(&self, id: usize) -> &[f64] {
        let node = self
            .nodes
            .iter()
            .rev()
            .find(|n| n.id_base <= id)
            .expect("the first partition starts at 0");
        node.service.corpus().point(id - node.id_base)
    }

    /// The ingest partition's current leader, whose store takes the
    /// ingest stream's writes (`None` on a single node).
    pub fn ingest_leader_addr(&self) -> Option<SocketAddr> {
        self.router.as_ref().map(|router| {
            let p = router.map().ingest_partition();
            router.map().partitions()[p].replicas[router.leader_of(p)]
        })
    }

    /// Stops background work, shuts every server down, and removes the
    /// durable state.
    pub fn shutdown(mut self) {
        self.anti_entropy.take();
        self.router.take();
        for node in self.nodes.drain(..) {
            node.server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.work);
    }
}
