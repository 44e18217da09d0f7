// perfbench: the repository benchmark. Usually started through run.py, which
// builds this binary and passes the workload settings from config.json:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [settings]
//
// Prints `# ` log lines, then one JSON result object with every metric the
// workload measured as the last stdout line.
// Exit code 0 when a result was printed (its "correct" field says whether
// every check held), 2 when the run could not produce a result.

#include <exception>
#include <iostream>

#include "simd/simd.hpp"
#include "workloads.hpp"

namespace perfbench {

bool setup_only(const Args& a) { return a.has("setup-only") && a.integer("setup-only") != 0; }

void closed_loop_metrics(Result& res, const std::vector<double>& solve_s, double tail_q,
                         double latency_limit_s) {
  const double p50 = median(solve_s);
  const double tail = quantile(solve_s, tail_q);
  double busy = 0.0;
  for (double t : solve_s) busy += t;
  const double rate = busy > 0.0 ? static_cast<double>(solve_s.size()) / busy : 0.0;
  res.set("solve_s_p50", p50);
  res.set("solve_s_tail", tail);
  res.set("throughput_rps", rate);
  res.set("capacity_rps", tail <= latency_limit_s ? rate : 0.0);
  for (const char* idx : {"lo", "mid", "hi"}) {
    res.set(std::string("latency_ms_p50.") + idx, 1e3 * p50);
    res.set(std::string("latency_ms_tail.") + idx, 1e3 * tail);
  }
  res.set("interactive_ms_tail.hi", 1e3 * tail);
  note("closed loop, one caller: " + std::to_string(solve_s.size()) + " solves, p50 " + fmt(p50) +
       " s, tail p" + fmt(100.0 * tail_q, 3) + " " + fmt(tail) + " s (" +
       fmt(static_cast<double>(solve_s.size()) * (1.0 - tail_q), 3) +
       " samples beyond it), latency limit " + fmt(latency_limit_s) + " s");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args(argc, argv);
    const std::string workload = args.str("workload");
    const bool trace = args.integer("trace") != 0;
    note("workload " + workload + ", seed " + args.str("seed") + ", " + args.str("seconds") +
         " s, trace " + (trace ? "on" : "off") + "; build " PERFBENCH_BUILD_TYPE
         ", GEOFEM_SIMD=" PERFBENCH_SIMD ", active ISA " + geofem::simd::active_isa());
    Result res;
    Tracer tracer(trace);
    if (workload == "swjapan_hybrid")
      run_swjapan_hybrid(args, res, tracer);
    else if (workload == "swjapan_flat_mpi")
      run_swjapan_flat_mpi(args, res, tracer);
    else if (workload == "service_mix")
      run_service_mix(args, res, tracer);
    else
      throw std::invalid_argument("unknown workload '" + workload + "'");

    if (trace && args.has("trace-out")) tracer.write(args.str("trace-out"));
    note("attempted " + std::to_string(res.attempted) + ", failed " + std::to_string(res.failed));
    if (res.attempted < 1) res.fail_run("no operation attempted");
    res.print();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << std::endl;
    return 2;
  }
}
