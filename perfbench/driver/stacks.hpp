// perfbench/driver/stacks.hpp — in-process socket stacks on port 0.
#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/partition_map.hpp"
#include "cluster/router.hpp"
#include "driver/common.hpp"
#include "hier/instance_array.hpp"
#include "hier/memory_governor.hpp"
#include "hier/parallel_stream.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "repl/replica.hpp"
#include "repl/wal_shipper.hpp"

namespace pb {

/// lanes x HierMatrix → ParallelStream → MemoryGovernor → IngestServer,
/// the shape of one worker. Torn down server first, then lanes.
class ServerStack {
 public:
  using Stream = hier::ParallelStream<double>;
  using Governor = hier::MemoryGovernor<Stream>;

  ServerStack(const Inputs& in, std::size_t lanes)
      : array_(lanes, in.nrows, in.ncols, in.cuts),
        stream_(array_),
        governor_(stream_) {
    stream_.start();
  }
  ~ServerStack() {
    stop_server();
    stop_stream();
  }
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  /// Start the server (after a replication sink, if any, exists).
  void serve(net::ReplicationSink* sink = nullptr) {
    net::IngestServer::Options opt;
    opt.replication = sink;
    server_ = std::make_unique<net::IngestServer>(stream_, governor_, opt);
    server_->start();
  }
  void stop_server() {
    if (server_ && server_->running()) server_->stop();
  }
  /// Drain and join the lanes; the lane report of this run.
  hier::ParallelStreamReport stop_stream() {
    return stream_.running() ? stream_.stop() : hier::ParallelStreamReport{};
  }

  std::uint16_t port() const { return server_->port(); }
  Stream& stream() { return stream_; }
  Governor& governor() { return governor_; }
  net::IngestServer& server() { return *server_; }
  /// The lanes' matrices; read after stop_stream().
  const hier::InstanceArray<double>& array() const { return array_; }
  std::size_t memory_bytes() const { return array_.memory_bytes(); }

 private:
  hier::InstanceArray<double> array_;
  Stream stream_;
  Governor governor_;
  std::unique_ptr<net::IngestServer> server_;
};

/// Connect a client to a stack on this host.
inline void dial(net::Client& c, std::uint16_t port) {
  c.connect("127.0.0.1", port);
}

/// `workers` single-lane ServerStacks behind a cluster::Router.
class ClusterStack {
 public:
  ClusterStack(const Inputs& in, std::size_t workers) {
    std::vector<cluster::WorkerEndpoint> eps;
    for (std::size_t w = 0; w < workers; ++w) {
      workers_.push_back(std::make_unique<ServerStack>(in, 1));
      workers_.back()->serve();
      eps.push_back(cluster::WorkerEndpoint{"127.0.0.1",
                                            workers_.back()->port()});
    }
    cluster::Router::Options opt;
    opt.nrows = in.nrows;
    opt.ncols = in.ncols;
    router_ = std::make_unique<cluster::Router>(
        cluster::PartitionMap(std::move(eps)), opt);
    router_->start();
  }
  ~ClusterStack() { stop(); }
  ClusterStack(const ClusterStack&) = delete;
  ClusterStack& operator=(const ClusterStack&) = delete;

  /// Router first, then every worker's server and lanes.
  void stop() {
    if (router_ && router_->running()) router_->stop();
    for (auto& w : workers_) {
      w->stop_server();
      w->stop_stream();
    }
  }

  std::uint16_t port() const { return router_->port(); }
  cluster::Router& router() { return *router_; }
  std::size_t size() const { return workers_.size(); }
  ServerStack& worker(std::size_t w) { return *workers_[w]; }

  /// Σ/nvals asked of each worker directly, not through the router.
  std::vector<std::pair<double, std::uint64_t>> per_worker_sums() {
    std::vector<std::pair<double, std::uint64_t>> out;
    for (auto& w : workers_) {
      net::Client c;
      dial(c, w->port());
      const net::SumReply r = c.query_sum();
      c.bye();
      out.emplace_back(r.sum, r.nvals);
    }
    return out;
  }

  /// Heap bytes of every worker's matrix; read after stop().
  std::size_t memory_bytes() const {
    std::size_t n = 0;
    for (const auto& w : workers_) n += w->memory_bytes();
    return n;
  }

 private:
  std::vector<std::unique_ptr<ServerStack>> workers_;
  std::unique_ptr<cluster::Router> router_;
};

/// A primary ServerStack whose server ships every accepted batch to an
/// in-process ReplicaServer; both WAL files live in `dir`.
class ReplicatedStack {
 public:
  ReplicatedStack(const Inputs& in, std::size_t lanes, const std::string& dir)
      : primary_wal_(dir + "/primary.wal"), replica_wal_(dir + "/replica.wal") {
    std::filesystem::remove(primary_wal_);
    std::filesystem::remove(replica_wal_);
    repl::ReplicaOptions ro;
    ro.wal_path = replica_wal_;
    ro.lanes = lanes;
    ro.nrows = in.nrows;
    ro.ncols = in.ncols;
    ro.cuts = in.cuts;
    ro.auto_promote = false;  // the primary lives; no failover here
    replica_ = std::make_unique<repl::ReplicaServer>(ro);
    replica_->start();
    primary_ = std::make_unique<ServerStack>(in, lanes);
    repl::ShipperOptions so;
    so.port = replica_->port();
    so.wal_path = primary_wal_;
    replicator_ =
        std::make_unique<repl::PrimaryReplicator>(primary_->stream(), so);
    replicator_->start();
    shipping_ = true;
    primary_->serve(replicator_.get());
  }
  ~ReplicatedStack() {
    stop();
    std::error_code ec;
    std::filesystem::remove(primary_wal_, ec);
    std::filesystem::remove(replica_wal_, ec);
  }
  ReplicatedStack(const ReplicatedStack&) = delete;
  ReplicatedStack& operator=(const ReplicatedStack&) = delete;

  /// Server, shipper, primary lanes, then the replica (which drains its
  /// own lanes, so its array() is then the replicated state).
  void stop() {
    primary_->stop_server();
    if (shipping_) replicator_->stop();
    shipping_ = false;
    primary_->stop_stream();
    if (replica_->running()) replica_->stop();
  }

  std::uint16_t port() const { return primary_->port(); }
  ServerStack& primary() { return *primary_; }
  repl::ReplicaServer& replica() { return *replica_; }
  std::uintmax_t wal_bytes() const {
    return std::filesystem::file_size(primary_wal_);
  }

 private:
  std::string primary_wal_;
  std::string replica_wal_;
  std::unique_ptr<repl::ReplicaServer> replica_;
  std::unique_ptr<ServerStack> primary_;
  std::unique_ptr<repl::PrimaryReplicator> replicator_;
  bool shipping_ = false;
};

/// Every (key, value) of a set of lane matrices, lanes concatenated.
std::vector<std::pair<std::uint64_t, double>> contents(
    const hier::InstanceArray<double>& lanes, const Reference& ref);

/// The body of a socket round: stream every batch through `writer`
/// (batch b pinned to lane b % pin_lanes, or the server's choice when
/// pin_lanes is 0), flushing per the interleave, while a query thread
/// asks `reader` every due probe set and Σ query and checks each answer
/// against the acknowledged and sent prefixes. Returns the seconds from
/// the first insert until the final flush returned.
double stream_with_queries(const Inputs& in, net::Client& writer,
                           net::Client& reader, std::size_t pin_lanes,
                           const RunConfig& cfg, Outcome& out);

}  // namespace pb
