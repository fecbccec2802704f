#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <vector>

namespace rdo::nn {

namespace {
constexpr std::uint32_t kMagic = 0x52444F32;  // "RDO2"
constexpr std::uint64_t kHeaderBytes =
    sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

void write_tensor(std::ofstream& f, const Tensor& t) {
  const std::uint64_t size = static_cast<std::uint64_t>(t.size());
  f.write(reinterpret_cast<const char*>(&size), sizeof(size));
  f.write(reinterpret_cast<const char*>(t.data()),
          static_cast<std::streamsize>(size * sizeof(float)));
}

/// Read exactly `n` bytes or throw; the stream state is validated after
/// every read so a truncated file can never feed uninitialized memory
/// into the network.
void read_exact(std::istream& f, void* dst, std::size_t n,
                const std::string& source) {
  f.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!f || f.gcount() != static_cast<std::streamsize>(n)) {
    throw SerializeError("load_params: truncated read in " + source);
  }
}

/// Bytes between the current position and end-of-stream. Requires a
/// seekable stream; every declared count in the header is bounded
/// against this before it is believed.
std::uint64_t remaining_bytes(std::istream& f, const std::string& source) {
  const std::istream::pos_type pos = f.tellg();
  f.seekg(0, std::ios::end);
  const std::istream::pos_type end = f.tellg();
  f.seekg(pos);
  if (pos == std::istream::pos_type(-1) || end == std::istream::pos_type(-1) ||
      !f || end < pos) {
    throw SerializeError("load_params: unseekable stream " + source);
  }
  return static_cast<std::uint64_t>(end - pos);
}

/// Parse one stored tensor into `stage` (not the live network — the load
/// is transactional, see load_params). The expected element count comes
/// from the destination tensor, so a hostile size is rejected before any
/// payload is consumed, and the declared payload is bounded by the bytes
/// actually present.
void read_tensor(std::istream& f, const Tensor& expect,
                 std::vector<float>& stage, std::uint64_t& budget,
                 const std::string& source) {
  std::uint64_t size = 0;
  if (budget < sizeof(size)) {
    throw SerializeError("load_params: truncated tensor header in " + source);
  }
  read_exact(f, &size, sizeof(size), source);
  budget -= sizeof(size);
  if (size != static_cast<std::uint64_t>(expect.size())) {
    throw SerializeError("load_params: tensor size mismatch in " + source);
  }
  if (size > budget / sizeof(float)) {
    throw SerializeError("load_params: tensor payload exceeds file size in " +
                         source);
  }
  stage.resize(static_cast<std::size_t>(size));
  read_exact(f, stage.data(), static_cast<std::size_t>(size) * sizeof(float),
             source);
  budget -= size * sizeof(float);
}

}  // namespace

void save_params(Layer& net, const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("save_params: cannot open " + path);
  const auto params = net.params();
  const auto buffers = net.buffers();
  const std::uint64_t pcount = params.size();
  const std::uint64_t bcount = buffers.size();
  f.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  f.write(reinterpret_cast<const char*>(&pcount), sizeof(pcount));
  f.write(reinterpret_cast<const char*>(&bcount), sizeof(bcount));
  for (Param* p : params) write_tensor(f, p->value);
  for (Tensor* b : buffers) write_tensor(f, *b);
  if (!f) throw std::runtime_error("save_params: write failed for " + path);
}

void load_params(Layer& net, std::istream& in, const std::string& source) {
  std::uint64_t budget = remaining_bytes(in, source);
  if (budget < kHeaderBytes) {
    throw SerializeError("load_params: " + source +
                         " is too small to hold a header");
  }
  std::uint32_t magic = 0;
  std::uint64_t pcount = 0, bcount = 0;
  read_exact(in, &magic, sizeof(magic), source);
  read_exact(in, &pcount, sizeof(pcount), source);
  read_exact(in, &bcount, sizeof(bcount), source);
  budget -= kHeaderBytes;
  if (magic != kMagic) {
    throw SerializeError("load_params: " + source + " has a bad magic");
  }
  const auto params = net.params();
  const auto buffers = net.buffers();
  if (pcount != params.size() || bcount != buffers.size()) {
    throw SerializeError("load_params: " + source +
                         " does not match the network");
  }
  // Each stored tensor carries at least an 8-byte length; an oversized
  // header count is rejected before any tensor data is consumed.
  const std::uint64_t tensors = pcount + bcount;
  if (tensors > budget / sizeof(std::uint64_t)) {
    throw SerializeError("load_params: " + source +
                         " declares more tensors than the file can hold");
  }
  // Stage the whole document first, commit only once every tensor has
  // validated — a file rejected half-way never leaves the network
  // partially overwritten.
  std::vector<std::vector<float>> pstage(params.size());
  std::vector<std::vector<float>> bstage(buffers.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    read_tensor(in, params[i]->value, pstage[i], budget, source);
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    read_tensor(in, *buffers[i], bstage[i], budget, source);
  }
  if (budget != 0 || in.peek() != std::istream::traits_type::eof()) {
    throw SerializeError("load_params: trailing bytes in " + source);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* dst = params[i]->value.data();
    for (std::size_t j = 0; j < pstage[i].size(); ++j) dst[j] = pstage[i][j];
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    float* dst = buffers[i]->data();
    for (std::size_t j = 0; j < bstage[i].size(); ++j) dst[j] = bstage[i][j];
  }
}

bool load_params(Layer& net, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  load_params(net, f, path);
  return true;
}

}  // namespace rdo::nn
