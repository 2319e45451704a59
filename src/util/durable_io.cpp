#include "util/durable_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define SOFIA_CRC_PCLMUL 1
#else
#define SOFIA_CRC_PCLMUL 0
#endif

#include "obs/obs.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace durable {

namespace {

/// Slicing-by-8 tables for the reflected CRC-32 (polynomial 0xEDB88320),
/// built once. t[0] is the classic bytewise table; t[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight lookups fold 8 input bytes at
/// once.
struct CrcTables {
  uint32_t t[8][256];
};

const CrcTables& Tables() {
  static const CrcTables tables = [] {
    CrcTables out;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      out.t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = out.t[k - 1][i];
        out.t[k][i] = out.t[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return out;
  }();
  return tables;
}

/// Little-endian 32-bit load, independent of the host byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

/// Slicing-by-8 over `size` bytes of the pre-inverted register `crc`.
uint32_t SliceBy8(const unsigned char* p, size_t size, uint32_t crc) {
  const auto& t = Tables().t;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if SOFIA_CRC_PCLMUL
#define SOFIA_TARGET_PCLMUL __attribute__((target("pclmul,sse4.1")))

SOFIA_TARGET_PCLMUL inline __m128i Load128(const unsigned char* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

/// One fold of a 128-bit lane: x.lo * k.lo ^ x.hi * k.hi ^ next.
SOFIA_TARGET_PCLMUL inline __m128i Fold128(__m128i x, __m128i k,
                                           __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Carry-less-multiply folding of the reflected CRC-32 (Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel 2009): four 128-bit lanes fold 64 bytes per step
/// with x^(512±32) mod P, collapse to one lane with x^(128±32) mod P, fold
/// any further 16-byte blocks, then reduce 128 → 64 → 32 bits (Barrett).
/// `size` must be at least 64 and a multiple of 16; `crc` is the
/// pre-inverted register, and so is the result.
SOFIA_TARGET_PCLMUL uint32_t FoldPclmul(
    const unsigned char* p, size_t size, uint32_t crc) {
  // The paper's bit-reflected constants: k1, k2 from x^(4*128±32) mod P,
  // k3, k4 from x^(128±32) mod P, k5 from x^64 mod P, and P' and mu' of
  // the Barrett step.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) x1 = Fold128(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t);
  // Barrett reduction to 32 bits.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

bool PclmulAvailable() {
  static const bool available =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return available;
}
#endif

/// Frame header preceding every atomic payload. Fixed-width little-endian
/// fields; header_crc covers the fields before it, so a bit flip anywhere
/// in the frame (header or payload) is detected before any payload byte is
/// trusted.
constexpr uint32_t kFrameMagic = 0x52444653u;  // "SFDR" little-endian.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4;

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Writes `data` fully to `fd`, honoring an armed torn-write/crash/error
/// decision at `site`. Returns false on (real or injected) IO error.
bool WriteAll(int fd, const char* data, size_t size, const char* site) {
  if (fault::Enabled()) {
    const fault::Decision decision = fault::OnIo(site, size);
    if (decision.io_error) {
      errno = EIO;
      return false;
    }
    if (decision.crash) {
      if (decision.torn) {
        size_t torn = std::min(decision.torn_bytes, size);
        const char* p = data;
        while (torn > 0) {
          const ssize_t n = ::write(fd, p, torn);
          if (n <= 0) break;
          p += n;
          torn -= static_cast<size_t>(n);
        }
      }
      ::close(fd);
      fault::Crash(site);
    }
  }
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// fsync with fault hooks; EINVAL/ENOTSUP (fs without fsync) counts as ok.
bool SyncFd(int fd, const char* site) {
  if (fault::Enabled()) {
    const fault::Decision decision = fault::OnIo(site, 0);
    if (decision.io_error) {
      errno = EIO;
      return false;
    }
    if (decision.crash) {
      ::close(fd);
      fault::Crash(site);
    }
  }
  static obs::Histogram* fsync_us =
      obs::Registry::Global().FindOrCreateHistogram("durable.fsync_us");
  const bool measured = obs::Enabled();
  const uint64_t start = measured ? obs::NowNs() : 0;
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP &&
      errno != EROFS) {
    return false;
  }
  if (measured) {
    fsync_us->Observe(static_cast<double>(obs::NowNs() - start) / 1e3);
  }
  return true;
}

/// One complete atomic-write attempt. Returns false on transient failure
/// (the caller retries); throws SimulatedCrash when a crash fault fires.
bool WriteAttempt(const std::string& path, const std::string& frame) {
  const std::string tmp = path + ".tmp";
  if (fault::Enabled()) {
    const fault::Decision decision = fault::OnIo("atomic.open", frame.size());
    if (decision.io_error) {
      errno = EIO;
      return false;
    }
    if (decision.crash) fault::Crash("atomic.open");
  }
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (!WriteAll(fd, frame.data(), frame.size(), "atomic.write")) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (!SyncFd(fd, "atomic.fsync")) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);

  if (fault::Enabled()) {
    const fault::Decision decision = fault::OnIo("atomic.rename", 0);
    if (decision.io_error) {
      ::unlink(tmp.c_str());
      errno = EIO;
      return false;
    }
    // A crash here leaves the complete tmp next to the intact old file —
    // recovery must see the OLD file (rename never happened).
    if (decision.crash) fault::Crash("atomic.rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }

  // Make the rename itself durable: fsync the parent directory.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    const bool ok = SyncFd(dfd, "atomic.dirfsync");
    ::close(dfd);
    if (!ok) return false;
  }
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
#if SOFIA_CRC_PCLMUL
  if (size >= 64 && PclmulAvailable()) {
    const size_t folded = size & ~size_t{15};
    crc = FoldPclmul(p, folded, crc);
    p += folded;
    size -= folded;
  }
#endif
  return ~SliceBy8(p, size, crc);
}

const char* Crc32Path() {
#if SOFIA_CRC_PCLMUL
  if (PclmulAvailable()) return "pclmul";
#endif
  return "slicing-by-8";
}

const char* IoStatusName(IoStatus status) {
  switch (status) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kNotFound:
      return "not-found";
    case IoStatus::kCorrupt:
      return "corrupt";
    case IoStatus::kIoError:
      return "io-error";
  }
  return "unknown";
}

bool EnsureDir(const std::string& path) {
  if (path.empty()) return false;
  std::string prefix;
  size_t pos = 0;
  while (pos != std::string::npos) {
    const size_t next = path.find('/', pos + 1);
    prefix = next == std::string::npos ? path : path.substr(0, next);
    pos = next;
    if (prefix.empty() || prefix == "." || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

IoStatus WriteFileAtomic(const std::string& path, const std::string& payload,
                         uint32_t version, const RetryPolicy& retry,
                         IoTelemetry* telemetry) {
  if (telemetry != nullptr) ++telemetry->writes;

  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  PutU32(&frame, kFrameMagic);
  PutU32(&frame, version);
  PutU64(&frame, payload.size());
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  PutU32(&frame, Crc32(frame.data(), frame.size()));  // Header CRC.
  frame += payload;

  // Jittered exponential backoff across attempts: deterministic from the
  // policy seed, so retry storms neither synchronize nor surprise tests.
  Rng jitter(retry.jitter_seed);
  const size_t attempts = std::max<size_t>(1, retry.max_attempts);
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      if (telemetry != nullptr) ++telemetry->write_retries;
      if (retry.sleep) {
        double delay = retry.base_delay_ms;
        for (size_t k = 1; k < attempt; ++k) delay *= 2.0;
        delay = std::min(delay, retry.max_delay_ms);
        delay *= 0.5 + 0.5 * jitter.Uniform();
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay));
      } else {
        jitter.Uniform();  // Keep the jitter sequence schedule-independent.
      }
    }
    if (WriteAttempt(path, frame)) {
      if (telemetry != nullptr) telemetry->bytes_written += payload.size();
      return IoStatus::kOk;
    }
  }
  if (telemetry != nullptr) ++telemetry->write_failures;
  return IoStatus::kIoError;
}

IoStatus ReadFramedFile(const std::string& path, std::string* payload,
                        uint32_t* version, IoTelemetry* telemetry) {
  if (telemetry != nullptr) ++telemetry->reads;
  if (fault::Enabled()) {
    const fault::Decision decision = fault::OnIo("atomic.read", 0);
    if (decision.io_error) return IoStatus::kIoError;
    if (decision.crash) fault::Crash("atomic.read");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return IoStatus::kNotFound;
  std::string frame;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) frame.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return IoStatus::kIoError;

  const auto corrupt = [&] {
    if (telemetry != nullptr) ++telemetry->corrupt_reads;
    return IoStatus::kCorrupt;
  };
  if (frame.size() < kHeaderBytes) return corrupt();
  if (GetU32(frame.data()) != kFrameMagic) return corrupt();
  if (GetU32(frame.data() + 20) != Crc32(frame.data(), 20)) return corrupt();
  const uint64_t size = GetU64(frame.data() + 8);
  if (size != frame.size() - kHeaderBytes) return corrupt();
  if (GetU32(frame.data() + 16) !=
      Crc32(frame.data() + kHeaderBytes, size)) {
    return corrupt();
  }
  if (version != nullptr) *version = GetU32(frame.data() + 4);
  payload->assign(frame, kHeaderBytes, size);
  return IoStatus::kOk;
}

SnapshotStore::SnapshotStore(std::string dir, std::string base,
                             Options options)
    : dir_(std::move(dir)), base_(std::move(base)), options_(options) {
  if (options_.generations == 0) options_.generations = 1;
}

std::string SnapshotStore::GenerationPath(uint64_t seq) const {
  return dir_ + "/" + base_ + "-" + std::to_string(seq) + ".snap";
}

IoStatus SnapshotStore::Write(uint64_t seq, const std::string& payload) {
  EnsureDir(dir_);
  const IoStatus status =
      WriteFileAtomic(GenerationPath(seq), payload, options_.version,
                      options_.retry, &telemetry_);
  if (status != IoStatus::kOk) return status;
  // Prune generations that fell out of the retention window. Failures are
  // ignored — stale files cost disk, not correctness (LoadNewest prefers
  // the highest seq).
  for (uint64_t old : ListGenerations()) {
    if (old + options_.generations <= seq) {
      ::unlink(GenerationPath(old).c_str());
    }
  }
  return IoStatus::kOk;
}

IoStatus SnapshotStore::LoadNewest(std::string* payload,
                                   uint64_t* seq) const {
  std::vector<uint64_t> generations = ListGenerations();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const IoStatus status =
        ReadFramedFile(GenerationPath(*it), payload, nullptr, &telemetry_);
    if (status == IoStatus::kOk) {
      if (seq != nullptr) *seq = *it;
      return IoStatus::kOk;
    }
    // Corrupt, torn, or unreadable: fall back to the next-older
    // generation (already counted by ReadFramedFile telemetry).
  }
  return IoStatus::kNotFound;
}

std::vector<uint64_t> SnapshotStore::ListGenerations() const {
  std::vector<uint64_t> out;
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return out;
  const std::string prefix = base_ + "-";
  const std::string suffix = ".snap";
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() -
                                       suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace durable
}  // namespace sofia
