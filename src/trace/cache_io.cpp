/**
 * @file
 * Shared cache-file plumbing (see cache_io.hpp for the envelope and
 * atomicity contract).
 */

#include "src/trace/cache_io.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
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

CacheReader::CacheReader(const char magic[8], const std::string &file)
{
    if (file.size() < 16 || std::memcmp(file.data(), magic, 8) != 0)
        return;
    uint64_t stored_sum;
    std::memcpy(&stored_sum, file.data() + file.size() - 8, 8);
    if (fnv1a(file.data(), file.size() - 8) != stored_sum)
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
