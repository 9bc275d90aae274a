#include "cluster/report.h"

#include <sstream>

#include "sim/report_json.h"

namespace laps {

std::string ClusterReport::summary() const {
  std::ostringstream out;
  out << "cluster " << scenario << " / " << dispatcher << " (" << num_shards
      << " shards)\n";
  out << "  offered " << offered << "  delivered " << delivered
      << "  dropped " << dropped << " (" << drop_ratio() * 100 << "%)\n";
  out << "  out-of-order: intra-NP " << intra_np_out_of_order
      << "  cross-NP " << cross_np_out_of_order << "  cluster "
      << cluster_out_of_order << " (" << cluster_ooo_ratio() * 100 << "%)\n";
  out << "  migrations: intra-NP " << intra_np_migrations << "  cross-NP "
      << cross_np_migrations << "\n";
  out << "  throughput " << throughput_mpps() << " Mpps\n";
  return out.str();
}

void write_cluster_report_json(JsonWriter& w, const ClusterReport& r) {
  w.begin_object();
  w.field("schema", "laps-cluster-v1");
  w.field("scenario", r.scenario);
  w.field("dispatcher", r.dispatcher);
  w.field("num_shards", static_cast<std::uint64_t>(r.num_shards));
  w.field("sim_time_ns", static_cast<std::int64_t>(r.sim_time));

  w.field("offered", r.offered);
  w.field("delivered", r.delivered);
  w.field("dropped", r.dropped);

  w.field("intra_np_out_of_order", r.intra_np_out_of_order);
  w.field("cluster_out_of_order", r.cluster_out_of_order);
  w.field("cross_np_out_of_order", r.cross_np_out_of_order);
  w.field("intra_np_migrations", r.intra_np_migrations);
  w.field("cross_np_migrations", r.cross_np_migrations);

  w.field("drop_ratio", r.drop_ratio());
  w.field("cluster_ooo_ratio", r.cluster_ooo_ratio());
  w.field("cross_np_ooo_ratio", r.cross_np_ooo_ratio());
  w.field("throughput_mpps", r.throughput_mpps());

  w.key("extra");
  w.begin_object();
  for (const auto& [key, value] : r.extra) {  // std::map: sorted, stable
    w.field(key, value);
  }
  w.end_object();

  w.key("shards");
  w.begin_array();
  for (const SimReport& shard : r.shards) write_report_json(w, shard);
  w.end_array();
  w.end_object();
}

std::string cluster_report_to_json(const ClusterReport& report) {
  JsonWriter w;
  write_cluster_report_json(w, report);
  return w.str();
}

}  // namespace laps
