/**
 * @file
 * Shared cache-file plumbing (see cache_io.hpp for the envelope and
 * atomicity contract).
 */

#include "src/trace/cache_io.hpp"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace sms {

uint64_t
fnv1a(const void *data, size_t n, uint64_t h)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

inline uint64_t
load64(const unsigned char *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof v); // little-endian host, as every format
    return v;
}

inline uint32_t
load32(const unsigned char *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline uint64_t
round64(uint64_t acc, uint64_t lane)
{
    return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
}

inline uint64_t
merge64(uint64_t acc, uint64_t lane_acc)
{
    return (acc ^ round64(0, lane_acc)) * kPrime1 + kPrime4;
}

} // namespace

uint64_t
xxh64(const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + n;
    uint64_t acc;
    if (n >= 32) {
        uint64_t a1 = kPrime1 + kPrime2;
        uint64_t a2 = kPrime2;
        uint64_t a3 = 0;
        uint64_t a4 = 0 - kPrime1;
        for (const unsigned char *last = end - 32; p <= last; p += 32) {
            a1 = round64(a1, load64(p));
            a2 = round64(a2, load64(p + 8));
            a3 = round64(a3, load64(p + 16));
            a4 = round64(a4, load64(p + 24));
        }
        acc = std::rotl(a1, 1) + std::rotl(a2, 7) + std::rotl(a3, 12) +
              std::rotl(a4, 18);
        acc = merge64(acc, a1);
        acc = merge64(acc, a2);
        acc = merge64(acc, a3);
        acc = merge64(acc, a4);
    } else {
        acc = kPrime5;
    }
    acc += n;
    for (; end - p >= 8; p += 8)
        acc = std::rotl(acc ^ round64(0, load64(p)), 27) * kPrime1 + kPrime4;
    if (end - p >= 4) {
        acc = std::rotl(acc ^ (load32(p) * kPrime1), 23) * kPrime2 + kPrime3;
        p += 4;
    }
    for (; p < end; ++p)
        acc = std::rotl(acc ^ (*p * kPrime5), 11) * kPrime1;
    acc ^= acc >> 33;
    acc *= kPrime2;
    acc ^= acc >> 29;
    acc *= kPrime3;
    acc ^= acc >> 32;
    return acc;
}

CacheReader::CacheReader(const char magic[8], std::string_view file)
{
    if (file.size() < 16 || std::memcmp(file.data(), magic, 8) != 0)
        return;
    uint64_t stored_sum;
    std::memcpy(&stored_sum, file.data() + file.size() - 8, 8);
    if (xxh64(file.data(), file.size() - 8) != stored_sum)
        return;
    data_ = file.data() + 8;
    size_ = file.size() - 16;
    ok_ = true;
}

bool
writeFileAtomic(const std::string &path, const std::string &data)
{
    // The pid alone is not unique enough: two threads of one process
    // saving the same cache path would share a temp file and interleave
    // their writes. A process-wide counter disambiguates threads; the
    // pid disambiguates processes.
    static std::atomic<uint64_t> g_tmp_serial{0};
    uint64_t serial = g_tmp_serial.fetch_add(1, std::memory_order_relaxed);
    std::string tmp = path + ".tmp." +
                      std::to_string(static_cast<long>(::getpid())) + "." +
                      std::to_string(serial);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    bool ok = data.empty() ||
              std::fwrite(data.data(), 1, data.size(), f) == data.size();
    ok = std::fclose(f) == 0 && ok;
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    if (size < 0) {
        std::fclose(f);
        return false;
    }
    std::fseek(f, 0, SEEK_SET);
    out.resize(static_cast<size_t>(size));
    bool ok = size == 0 || std::fread(out.data(), 1, out.size(), f) ==
                               out.size();
    std::fclose(f);
    return ok;
}

MappedFile::~MappedFile()
{
    if (size_ != 0)
        ::munmap(const_cast<char *>(data_), size_);
}

bool
MappedFile::open(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st{};
    bool ok = ::fstat(fd, &st) == 0;
    if (ok && st.st_size > 0) {
        void *p = ::mmap(nullptr, static_cast<size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
        ok = p != MAP_FAILED;
        if (ok) {
            data_ = static_cast<const char *>(p);
            size_ = static_cast<size_t>(st.st_size);
        }
    }
    ::close(fd);
    return ok;
}

bool
ensureDir(const std::string &dir)
{
    struct stat st{};
    if (::stat(dir.c_str(), &st) == 0)
        return S_ISDIR(st.st_mode);
    // Create parents one component at a time (mkdir -p).
    for (size_t pos = 1; pos <= dir.size(); ++pos) {
        if (pos != dir.size() && dir[pos] != '/')
            continue;
        std::string prefix = dir.substr(0, pos);
        if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

const char *
profileTag(ScaleProfile profile)
{
    switch (profile) {
    case ScaleProfile::Tiny: return "tiny";
    case ScaleProfile::Small: return "small";
    case ScaleProfile::Large: return "large";
    }
    return "unknown";
}

} // namespace sms
