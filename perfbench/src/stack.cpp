#include "stack.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "filter/signature.h"
#include "seq/fasta.h"
#include "store/loader.h"

namespace perfbench {

Serving default_serving() {
  Serving s;
  s.matrix = &aalign::score::ScoreMatrix::blosum62();
  s.cfg.kind = aalign::AlignKind::Local;
  s.cfg.pen = aalign::Penalties::symmetric(10, 2);
  s.isa = aalign::simd::best_available_isa();
  s.threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  return s;
}

aalign::service::ServiceOptions service_options(const Serving& s,
                                                int threads) {
  aalign::service::ServiceOptions opt;
  opt.search.threads = std::max(1, threads);
  opt.search.query.isa = s.isa;
  opt.search.filter.mode = aalign::filter::FilterMode::Auto;
  opt.executors = 1;
  opt.queue_capacity = 64;
  return opt;
}

Stack::~Stack() {
  if (front) {
    front->request_stop();
    front->join();
  }
  if (gateway) gateway->shutdown();
  for (auto& server : shard_servers) {
    server->request_stop();
    server->join();
  }
  for (auto& svc : shards) svc->shutdown();
}

std::unique_ptr<Stack> build_single(const Serving& s,
                                    const std::string& fasta_path) {
  auto stack = std::make_unique<Stack>();
  aalign::seq::Database db(s.matrix->alphabet(),
                           aalign::seq::read_fasta_file(fasta_path));
  stack->shards.push_back(std::make_unique<aalign::service::AlignService>(
      *s.matrix, s.cfg, std::move(db), service_options(s, s.threads)));
  stack->shard_servers.push_back(
      std::make_unique<aalign::service::TcpServer>(*stack->shards.back()));
  stack->shard_servers.back()->start();
  return stack;
}

std::vector<ShardView> open_shards(const Serving& s, const std::string& aidx,
                                   std::size_t n) {
  const auto idx = aalign::store::MappedIndex::open(aidx);
  if (std::string(idx.header().matrix_name) != s.matrix->name()) {
    throw std::runtime_error("index built for another matrix");
  }
  const int threads = std::max(1, s.threads / static_cast<int>(n));
  std::vector<ShardView> out;
  for (std::size_t i = 0; i < n; ++i) {
    const aalign::store::ShardSlice slice = idx.shard_slice(i, n);
    if (slice.empty()) {
      throw std::runtime_error("index slice " + std::to_string(i) + "/" +
                               std::to_string(n) + " is empty");
    }
    ShardView v{idx.database(slice), service_options(s, threads)};
    v.opt.global_index_map = idx.original_indices(slice);
    v.opt.search.filter.index = idx.signatures(slice);
    v.opt.search.filter.params = idx.filter_params();
    v.opt.search.query.lut.i8 = idx.profile_lut_i8();
    v.opt.search.query.lut.i16 = idx.profile_lut_i16();
    v.opt.search.query.lut.i32 = idx.profile_lut_i32();
    v.opt.search.query.lut.stride = idx.header().lut_stride;
    v.opt.search.query.lut.backing = idx.file();
    out.push_back(std::move(v));
  }
  return out;
}

std::unique_ptr<Stack> build_fleet(const Serving& s, const std::string& aidx,
                                   std::size_t n) {
  auto stack = std::make_unique<Stack>();
  aalign::service::GatewayOptions gopt;
  for (ShardView& v : open_shards(s, aidx, n)) {
    stack->shards.push_back(std::make_unique<aalign::service::AlignService>(
        *s.matrix, s.cfg, std::move(v.db), std::move(v.opt)));
    stack->shard_servers.push_back(
        std::make_unique<aalign::service::TcpServer>(*stack->shards.back()));
    stack->shard_servers.back()->start();
    gopt.backends.push_back(
        "127.0.0.1:" + std::to_string(stack->shard_servers.back()->port()));
  }
  stack->gateway = std::make_unique<aalign::service::Gateway>(gopt);
  stack->front = std::make_unique<aalign::service::TcpServer>(*stack->gateway);
  stack->front->start();
  return stack;
}

namespace {

constexpr std::size_t kTempSlots = 4;
constexpr std::size_t kTempPathMax = 512;
char g_temp_paths[kTempSlots][kTempPathMax];
std::atomic<bool> g_temp_live[kTempSlots];

}  // namespace

TempFile::TempFile(std::string path) : path_(std::move(path)) {
  if (path_.size() >= kTempPathMax) {
    throw std::invalid_argument("temporary path too long: " + path_);
  }
  for (std::size_t i = 0; i < kTempSlots; ++i) {
    if (!g_temp_live[i].load() && g_temp_paths[i][0] == '\0') {
      std::memcpy(g_temp_paths[i], path_.c_str(), path_.size() + 1);
      g_temp_live[i].store(true);
      return;
    }
  }
  throw std::runtime_error("too many temporary files");
}

TempFile::~TempFile() {
  ::unlink(path_.c_str());
  for (std::size_t i = 0; i < kTempSlots; ++i) {
    if (g_temp_live[i].load() && path_ == g_temp_paths[i]) {
      g_temp_live[i].store(false);
      g_temp_paths[i][0] = '\0';
    }
  }
}

void remove_temp_files() {
  for (std::size_t i = 0; i < kTempSlots; ++i) {
    if (g_temp_live[i].load()) ::unlink(g_temp_paths[i]);
  }
}

}  // namespace perfbench
