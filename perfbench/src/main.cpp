// Benchmark harness: runs one seeded workload against the TopoShot public
// API and prints its raw measurements as one JSON document on stdout.
// perfbench/run.py builds this binary, passes the workload inputs recorded
// in perfbench/workloads.json, and turns the document into the reported
// metrics.
//
//   perfbench --workload=campaign --seed=1 --seconds=45 --trace=0 <inputs...>

#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  const topo::util::Cli cli(argc, argv);
  const perfbench::Args args(cli);
  const std::string workload =
      cli.get_choice("workload", "", {"campaign", "serial_probe", "monitor_rpc"});
  try {
    perfbench::RunResult res;
    if (workload == "campaign") res = perfbench::run_campaign(args);
    if (workload == "serial_probe") res = perfbench::run_serial_probe(args);
    if (workload == "monitor_rpc") res = perfbench::run_monitor_rpc(args);
    std::cout << res.to_json() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }
}
