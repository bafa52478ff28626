/**
 * @file
 * Shared on-disk cache plumbing: the little-endian Writer/Reader pair,
 * the envelope checksum, and the atomic-rename file helpers used by
 * every cache file format in the repository (.wkld workload snapshots,
 * SMSTAPE1 traversal tapes, SMSRSLT1 result-cache entries).
 *
 * All formats follow the same envelope: an 8-byte ASCII magic, a body
 * of fixed-width little-endian fields appended by CacheWriter, and a
 * trailing XXH64 checksum of everything before it. Floats serialize as
 * IEEE-754 bit patterns, so reloads are bit-exact.
 *
 * The envelope is built and checked in place. A CacheWriter starts its
 * buffer with the magic and reserves room for the body; seal() appends
 * the checksum and hands the buffer over as the file. A CacheReader
 * checks the magic and the checksum of the file it was given and then
 * reads the body between them, without copying it out.
 *
 * Files are written via writeFileAtomic(): the payload lands in a
 * uniquely named temporary file in the target directory and is
 * rename()d into place, so concurrent writers — racing worker
 * *processes* of a sharded sweep as well as racing *threads* of one
 * process — never interleave bytes and readers never observe a partial
 * file. Whichever writer renames last wins with an intact file; for
 * cache entries every writer produces identical bytes, so the race is
 * benign by construction.
 */

#ifndef SMS_TRACE_CACHE_IO_HPP
#define SMS_TRACE_CACHE_IO_HPP

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/geometry/vec3.hpp"
#include "src/scene/registry.hpp"

namespace sms {

/**
 * FNV-1a over @p n bytes, chainable via the @p h seed. Byte-serial: it
 * keys the cache file names and digests, which hash a few dozen bytes.
 */
uint64_t fnv1a(const void *data, size_t n,
               uint64_t h = 0xcbf29ce484222325ull);

/**
 * XXH64 of @p n bytes with seed 0, as the xxHash specification defines
 * it: four accumulators take the 8-byte lanes of each 32-byte stripe
 * independently, so the loop runs near memory speed. The checksum of
 * every cache envelope.
 */
uint64_t xxh64(const void *data, size_t n);

/**
 * Append-only little-endian serializer. Built with a magic it writes a
 * cache envelope; built without one it only collects bytes (the cache
 * key digests hash its buffer()).
 */
class CacheWriter
{
  public:
    CacheWriter() = default;

    /**
     * Start an envelope with @p magic and reserve room for a body of
     * @p body_bytes, so a body of that size is written without growing
     * the buffer.
     */
    CacheWriter(const char magic[8], size_t body_bytes)
    {
        out_.reserve(8 + body_bytes + 8);
        out_.append(magic, 8);
    }

    void
    u8(uint8_t v)
    {
        out_.push_back(static_cast<char>(v));
    }

    void
    u32(uint32_t v)
    {
        raw(&v, sizeof v);
    }

    void
    u64(uint64_t v)
    {
        raw(&v, sizeof v);
    }

    void
    i32(int32_t v)
    {
        raw(&v, sizeof v);
    }

    void
    f32(float v)
    {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u32(bits);
    }

    /** double as its IEEE-754 bit pattern (bit-exact reload). */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    vec3(const Vec3 &v)
    {
        f32(v.x);
        f32(v.y);
        f32(v.z);
    }

    /** Length-prefixed raw bytes: a u64 length, then the bytes. */
    void
    bytes(const void *p, size_t n)
    {
        u64(n);
        raw(p, n);
    }

    const std::string &buffer() const { return out_; }

    /**
     * Finish the envelope: append the XXH64 checksum of everything
     * written so far and move the buffer out as the file's bytes.
     */
    std::string
    seal() &&
    {
        uint64_t sum = xxh64(out_.data(), out_.size());
        raw(&sum, sizeof sum);
        return std::move(out_);
    }

  private:
    void
    raw(const void *p, size_t n)
    {
        out_.append(static_cast<const char *>(p), n);
    }

    std::string out_;
};

/**
 * Bounds-checked reader of one cache envelope's body; any overrun flags
 * failure and returns zeros.
 */
class CacheReader
{
  public:
    /**
     * Open the envelope in @p file in place. The reader is ok() only
     * when @p file starts with @p magic and ends with the XXH64
     * checksum of everything before it; it then reads the body between
     * the two. @p file must outlive the reader.
     */
    CacheReader(const char magic[8], std::string_view file);
    CacheReader(const char magic[8], std::string &&file) = delete;

    bool ok() const { return ok_; }

    /** True when nothing overran and the whole body was read. */
    bool atEnd() const { return ok_ && off_ == size_; }

    /** Body bytes not read yet (0 once anything overran). */
    size_t remaining() const { return ok_ ? size_ - off_ : 0; }

    uint8_t
    u8()
    {
        uint8_t v = 0;
        raw(&v, sizeof v);
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        raw(&v, sizeof v);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        raw(&v, sizeof v);
        return v;
    }

    int32_t
    i32()
    {
        int32_t v = 0;
        raw(&v, sizeof v);
        return v;
    }

    float
    f32()
    {
        uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    Vec3
    vec3()
    {
        Vec3 v;
        v.x = f32();
        v.y = f32();
        v.z = f32();
        return v;
    }

    /**
     * Length-prefixed bytes written by CacheWriter::bytes(): their
     * length goes to @p n and the result points into the file.
     * nullptr when they overrun the body.
     */
    const char *
    bytes(uint64_t &n)
    {
        n = u64();
        if (!ok_ || n > size_ - off_) {
            ok_ = false;
            n = 0;
            return nullptr;
        }
        const char *p = data_ + off_;
        off_ += n;
        return p;
    }

    /**
     * An element count, checked against the body: it fails (and yields
     * 0) when that many records of at least @p min_record_bytes each
     * cannot fit in the bytes left. A hostile count then cannot make
     * the caller reserve more than the file could hold.
     */
    uint64_t
    count(size_t min_record_bytes)
    {
        uint64_t n = u64();
        if (ok_ && n > (size_ - off_) / min_record_bytes)
            ok_ = false;
        return ok_ ? n : 0;
    }

  private:
    void
    raw(void *p, size_t n)
    {
        if (!ok_ || n > size_ - off_) {
            ok_ = false;
            return;
        }
        std::memcpy(p, data_ + off_, n);
        off_ += n;
    }

    const char *data_ = nullptr; ///< first body byte
    size_t size_ = 0;            ///< body bytes
    size_t off_ = 0;
    bool ok_ = false;
};

/**
 * Write @p data to @p path through a uniquely named temp file in the
 * same directory plus an atomic rename. The temp suffix combines the
 * pid with a per-process counter, so two racing threads of one process
 * (which share a pid) get distinct temp files too — the historical
 * pid-only suffix let them interleave writes to the same temp path.
 */
bool writeFileAtomic(const std::string &path, const std::string &data);

/** Slurp @p path into @p out. @return false when unreadable. */
bool readFile(const std::string &path, std::string &out);

/**
 * A file mapped read-only, unmapped when the object goes. The cache
 * loaders read their envelopes through it rather than readFile(): the
 * page cache supplies the bytes, so a load allocates, zeroes and copies
 * no buffer of the file's size (snapshot and tape bodies run to
 * 13.5 MB, and a buffer that large gets fresh pages at every load).
 * Cache files are replaced by rename, never rewritten in place, so a
 * mapping always sees the whole file it opened.
 */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** Map @p path. @return false when it cannot be opened or mapped. */
    bool open(const std::string &path);

    std::string_view bytes() const { return {data_, size_}; }

  private:
    const char *data_ = nullptr;
    size_t size_ = 0;
};

/** mkdir -p. @return false when a component exists as a non-dir. */
bool ensureDir(const std::string &dir);

/** Lowercase filename tag of a scale profile ("tiny"/"small"/"large"). */
const char *profileTag(ScaleProfile profile);

} // namespace sms

#endif // SMS_TRACE_CACHE_IO_HPP
