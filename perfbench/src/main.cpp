// served_bench: end-to-end and per-layer benchmark of the served search
// stack (README.md). Prints report lines, then one JSON result line:
//
//   served_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--tmpdir DIR] [--spans FILE]
//
// Exit codes: 0 measured and correct; 1 a wrong answer (the result line
// says correct=false); 2 usage or set-up error; 3 the run is invalid (the
// open-loop sender of a traced run fell behind) and prints no result; 4
// the wall-clock cap expired.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

// Every phase is sized from --seconds; this cap only catches a wedged
// stack, inside the 180 s a benchmark run may take.
constexpr unsigned kCapSeconds = 170;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "served_bench: %s\nusage: served_bench --workload NAME --seed "
               "N --seconds S --trace 0|1 [--tmpdir DIR] [--spans FILE]\n",
               msg);
  std::exit(2);
}

extern "C" void on_signal(int sig) {
  perfbench::remove_temp_files();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

// Hard wall-clock cap: a stuck run removes its temporary files and exits
// instead of hanging.
extern "C" void on_alarm(int) {
  static const char msg[] = "served_bench: wall-clock cap expired\n";
  (void)!::write(2, msg, sizeof(msg) - 1);
  perfbench::remove_temp_files();
  ::_exit(4);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--tmpdir") {
        opt.tmpdir = v;
      } else if (a == "--spans") {
        opt.spans_out = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  for (const int sig : {SIGINT, SIGTERM, SIGABRT, SIGBUS, SIGFPE, SIGSEGV}) {
    std::signal(sig, on_signal);
  }
  std::signal(SIGALRM, on_alarm);
  ::alarm(kCapSeconds);

  perfbench::RunResult res;
  try {
    res = perfbench::run_benchmark(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "served_bench: %s\n", e.what());
    return 2;
  }
  for (const std::string& line : res.notes) std::printf("%s\n", line.c_str());
  if (!res.valid) {
    std::fflush(stdout);
    std::fprintf(stderr, "served_bench: invalid run: %s\n",
                 res.invalid_reason.c_str());
    return 3;
  }
  if (!res.correct) {
    std::fprintf(stderr, "served_bench: %zu wrong answer(s); first: %s\n",
                 res.wrong, res.first_wrong.c_str());
  }
  std::printf("%s\n", perfbench::result_json(res).c_str());
  return res.correct ? 0 : 1;
}
