#include "rlc/core/durable_index.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "rlc/obs/trace.h"

namespace fs = std::filesystem;

namespace rlc {

namespace {

constexpr uint64_t kSnapshotMagic = 0x524C43534E4150ULL;  // "RLCSNAP"
constexpr uint32_t kSnapshotVersion = 1;
constexpr size_t kUpdateBytes = 13;  // u32 src, u32 label, u32 dst, u8 op

constexpr uint64_t kFnvSeed = 0xCBF29CE484222325ULL;
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
  return h;
}

template <typename T>
void Put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutUpdates(std::string& out, std::span<const EdgeUpdate> updates) {
  Put<uint64_t>(out, updates.size());
  for (const EdgeUpdate& e : updates) {
    Put<uint32_t>(out, e.src);
    Put<uint32_t>(out, e.label);
    Put<uint32_t>(out, e.dst);
    out.push_back(static_cast<char>(e.op));
  }
}

/// Checksummed sequential reader over a snapshot file: every byte read
/// through it feeds `body`, the region the trailing checksum covers.
class SnapReader {
 public:
  SnapReader(std::ifstream& in, const std::string& path)
      : in_(in), path_(path) {}

  template <typename T>
  T Get(bool checksummed = true) {
    char buf[sizeof(T)];
    ReadRaw(buf, sizeof(T), checksummed);
    T v;
    std::memcpy(&v, buf, sizeof(T));
    return v;
  }

  void ReadRaw(char* dst, size_t n, bool checksummed = true) {
    in_.read(dst, static_cast<std::streamsize>(n));
    if (!in_) Fail("truncated file");
    if (checksummed) body_.append(dst, n);
  }

  uint64_t Remaining() {
    const std::istream::pos_type pos = in_.tellg();
    if (pos == std::istream::pos_type(-1)) return UINT64_MAX;
    in_.seekg(0, std::ios::end);
    const std::istream::pos_type end = in_.tellg();
    in_.seekg(pos);
    if (end == std::istream::pos_type(-1) || end < pos) return UINT64_MAX;
    return static_cast<uint64_t>(end - pos);
  }

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("LoadSnapshotFile(" + path_ + "): " + what);
  }

  uint64_t BodyChecksum() const {
    return Fnv1a(kFnvSeed, body_.data(), body_.size());
  }

 private:
  std::ifstream& in_;
  const std::string& path_;
  std::string body_;
};

std::vector<EdgeUpdate> GetUpdates(SnapReader& r, const char* what) {
  const uint64_t count = r.Get<uint64_t>();
  if (count > r.Remaining() / kUpdateBytes) {
    r.Fail(std::string(what) + " count " + std::to_string(count) +
           " exceeds the bytes left in the file");
  }
  std::vector<EdgeUpdate> updates(count);
  for (EdgeUpdate& e : updates) {
    char buf[kUpdateBytes];
    r.ReadRaw(buf, kUpdateBytes);
    std::memcpy(&e.src, buf, 4);
    std::memcpy(&e.label, buf + 4, 4);
    std::memcpy(&e.dst, buf + 8, 4);
    const auto op = static_cast<unsigned char>(buf[12]);
    if (op > static_cast<unsigned char>(EdgeOp::kDelete)) {
      r.Fail(std::string("bad op byte in ") + what + " list");
    }
    e.op = static_cast<EdgeOp>(op);
  }
  return updates;
}

}  // namespace

std::vector<uint64_t> ListGenerationFiles(const std::string& dir,
                                          const std::string& prefix,
                                          const std::string& suffix) {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    char* end = nullptr;
    const uint64_t gen = std::strtoull(digits.c_str(), &end, 10);
    if (digits.empty() || *end != '\0' || gen == 0) continue;
    gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::string WalPath(const std::string& dir, uint64_t gen) {
  return dir + "/wal-" + std::to_string(gen) + ".log";
}

void WriteSnapshotFile(const std::string& path, uint64_t applied_lsn,
                       std::span<const EdgeUpdate> inserted,
                       std::span<const EdgeUpdate> removed,
                       const RlcIndex* index) {
  static obs::Histogram& write_ns =
      obs::Registry::Global().GetHistogram("snap.write_ns");
  obs::ScopedSpan span(write_ns, "snap.write");
  std::string body;
  Put<uint32_t>(body, kSnapshotVersion);
  Put<uint64_t>(body, applied_lsn);
  PutUpdates(body, inserted);
  PutUpdates(body, removed);

  std::string file;
  file.reserve(body.size() + 32);
  Put<uint64_t>(file, kSnapshotMagic);
  file += body;
  Put<uint64_t>(file, Fnv1a(kFnvSeed, body.data(), body.size()));
  file.push_back(index ? 1 : 0);
  if (index) {
    std::ostringstream os(std::ios::binary);
    WriteIndex(*index, os);
    const std::string index_bytes = std::move(os).str();
    // The index format only checksums its signature section; cover every
    // index byte here so a flipped CSR entry is detected, not served.
    Put<uint64_t>(file, index_bytes.size());
    Put<uint64_t>(file, Fnv1a(kFnvSeed, index_bytes.data(), index_bytes.size()));
    file += index_bytes;
  }
  AtomicWriteFile(path, file, "index_io.save");
}

LoadedSnapshot LoadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("LoadSnapshotFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  SnapReader r(in, path);
  if (r.Get<uint64_t>(/*checksummed=*/false) != kSnapshotMagic) {
    r.Fail("bad magic (not an rlc snapshot file)");
  }
  const uint32_t version = r.Get<uint32_t>();
  if (version != kSnapshotVersion) {
    r.Fail("unsupported snapshot version " + std::to_string(version));
  }
  LoadedSnapshot snap;
  snap.applied_lsn = r.Get<uint64_t>();
  snap.inserted = GetUpdates(r, "inserted");
  snap.removed = GetUpdates(r, "removed");
  const uint64_t checksum = r.BodyChecksum();
  if (r.Get<uint64_t>(/*checksummed=*/false) != checksum) {
    r.Fail("overlay checksum mismatch");
  }
  const auto has_index = r.Get<uint8_t>(/*checksummed=*/false);
  if (has_index > 1) r.Fail("bad has_index byte");
  if (has_index == 1) {
    const uint64_t index_len = r.Get<uint64_t>(/*checksummed=*/false);
    const uint64_t want = r.Get<uint64_t>(/*checksummed=*/false);
    if (index_len != r.Remaining()) {
      r.Fail("index length " + std::to_string(index_len) +
             " does not match the bytes left in the file");
    }
    std::string index_bytes(index_len, '\0');
    r.ReadRaw(index_bytes.data(), index_len, /*checksummed=*/false);
    if (Fnv1a(kFnvSeed, index_bytes.data(), index_bytes.size()) != want) {
      r.Fail("embedded index checksum mismatch");
    }
    std::istringstream is(std::move(index_bytes), std::ios::binary);
    snap.index = ReadIndex(is, path);
  }
  return snap;
}

}  // namespace rlc
