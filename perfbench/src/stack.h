// The served stacks under test, built in-process exactly as aalignd and
// aalign_fleet wire them: AlignService behind a loopback TcpServer, or a
// Gateway (behind its own TcpServer) over shard AlignServices that each
// serve one slice of a mapped .aidx. Every stack takes an ephemeral
// 127.0.0.1 port, and its destructor stops and joins every listener,
// gateway worker and executor, front to back.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "score/matrices.h"
#include "service/gateway.h"
#include "service/service.h"
#include "service/tcp.h"
#include "simd/isa.h"

namespace perfbench {

// aalignd's defaults: BLOSUM62, local affine 10/2, the best ISA,
// threads = nproc in total, 1 executor, queue 64, filter auto.
struct Serving {
  const aalign::score::ScoreMatrix* matrix = nullptr;
  aalign::AlignConfig cfg;
  aalign::simd::IsaKind isa = aalign::simd::IsaKind::Scalar;
  int threads = 1;
};
Serving default_serving();

// ServiceOptions of one shard (or the whole database) at `threads`.
aalign::service::ServiceOptions service_options(const Serving& s,
                                                int threads);

struct Stack {
  std::vector<std::unique_ptr<aalign::service::AlignService>> shards;
  std::vector<std::unique_ptr<aalign::service::TcpServer>> shard_servers;
  std::unique_ptr<aalign::service::Gateway> gateway;   // fleet only
  std::unique_ptr<aalign::service::TcpServer> front;   // fleet only

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack();

  std::uint16_t port() const {
    return front ? front->port() : shard_servers.front()->port();
  }
};

// One AlignService over a FASTA-loaded database (aalignd -d FILE).
std::unique_ptr<Stack> build_single(const Serving& s,
                                    const std::string& fasta_path);

// A shard of a mapped index: the zero-copy slice database, its global
// index map, windowed signatures and the stored profile LUTs - what
// aalignd --db-index FILE --shard I/N serves.
struct ShardView {
  aalign::seq::Database db;
  aalign::service::ServiceOptions opt;
};
std::vector<ShardView> open_shards(const Serving& s, const std::string& aidx,
                                   std::size_t n);

// A Gateway over `n` shard services of a mapped index, each with
// threads / n search threads.
std::unique_ptr<Stack> build_fleet(const Serving& s, const std::string& aidx,
                                   std::size_t n);

// Temporary files (the FASTA copy, the .aidx) live under the run's
// scratch directory and are unlinked on every exit path: by this guard's
// destructor, or by remove_temp_files() from the signal handler and the
// wall-clock watchdog.
class TempFile {
 public:
  explicit TempFile(std::string path);
  ~TempFile();
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};
// Async-signal-safe: unlinks every live TempFile.
void remove_temp_files();

}  // namespace perfbench
