/**
 * @file
 * Mesh-building helper implementations.
 */

#include "src/scene/builders.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/util/check.hpp"

namespace sms {
namespace builders {

namespace {

constexpr float kPi = 3.14159265358979323846f;

/** Icosahedron vertices/faces used as subdivision seed. */
struct IcoMesh
{
    std::vector<Vec3> verts;
    std::vector<std::array<uint32_t, 3>> faces;
};

IcoMesh
makeIcosahedron()
{
    const float t = (1.0f + std::sqrt(5.0f)) / 2.0f;
    IcoMesh m;
    m.verts = {
        {-1, t, 0}, {1, t, 0}, {-1, -t, 0}, {1, -t, 0},
        {0, -1, t}, {0, 1, t}, {0, -1, -t}, {0, 1, -t},
        {t, 0, -1}, {t, 0, 1}, {-t, 0, -1}, {-t, 0, 1},
    };
    for (auto &v : m.verts)
        v = normalize(v);
    m.faces = {
        {0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
        {1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
        {3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
        {4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
    };
    return m;
}

/** Subdivide each face into four, projecting new vertices to the sphere. */
void
subdivide(IcoMesh &m)
{
    std::map<std::pair<uint32_t, uint32_t>, uint32_t> midpoint;
    auto mid = [&](uint32_t a, uint32_t b) {
        auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
        auto it = midpoint.find(key);
        if (it != midpoint.end())
            return it->second;
        Vec3 p = normalize((m.verts[a] + m.verts[b]) * 0.5f);
        m.verts.push_back(p);
        uint32_t idx = static_cast<uint32_t>(m.verts.size() - 1);
        midpoint.emplace(key, idx);
        return idx;
    };

    std::vector<std::array<uint32_t, 3>> next;
    next.reserve(m.faces.size() * 4);
    for (const auto &f : m.faces) {
        uint32_t ab = mid(f[0], f[1]);
        uint32_t bc = mid(f[1], f[2]);
        uint32_t ca = mid(f[2], f[0]);
        next.push_back({f[0], ab, ca});
        next.push_back({f[1], bc, ab});
        next.push_back({f[2], ca, bc});
        next.push_back({ab, bc, ca});
    }
    m.faces = std::move(next);
}

/**
 * The unit icosphere after @p subdiv subdivisions. Each level is
 * subdivided once per process, from the level below, and kept: callers
 * only scale and move its vertices, so every triangle they emit is the
 * one a fresh subdivision would give. Safe to call from any thread.
 */
const IcoMesh &
unitIcosphere(int subdiv)
{
    const size_t level = subdiv > 0 ? static_cast<size_t>(subdiv) : 0;
    static std::mutex mutex;
    static std::vector<std::unique_ptr<const IcoMesh>> levels;
    std::lock_guard<std::mutex> lock(mutex);
    if (levels.empty())
        levels.push_back(std::make_unique<const IcoMesh>(makeIcosahedron()));
    while (levels.size() <= level) {
        auto next = std::make_unique<IcoMesh>(*levels.back());
        subdivide(*next);
        levels.push_back(std::move(next));
    }
    return *levels[level];
}

/** Deterministic smooth-ish value noise on the unit sphere. */
float
sphereNoise(const Vec3 &p, uint64_t seed)
{
    // Three octaves of hashed lattice noise along the unit direction.
    float amp = 1.0f;
    float freq = 2.0f;
    float total = 0.0f;
    for (int octave = 0; octave < 3; ++octave) {
        int ix = static_cast<int>(std::floor((p.x + 2.0f) * freq));
        int iy = static_cast<int>(std::floor((p.y + 2.0f) * freq));
        int iz = static_cast<int>(std::floor((p.z + 2.0f) * freq));
        uint64_t h = splitmix64(seed ^ (uint64_t)(ix * 73856093) ^
                                (uint64_t)(iy * 19349663) ^
                                (uint64_t)(iz * 83492791) ^
                                (uint64_t)octave << 32);
        total += amp * (static_cast<float>(h & 0xffff) / 65535.0f - 0.5f);
        amp *= 0.5f;
        freq *= 2.0f;
    }
    return total;
}

} // namespace

void
addQuad(Scene &scene, const Vec3 &a, const Vec3 &b, const Vec3 &c,
        const Vec3 &d, uint16_t material)
{
    scene.addTriangle(Triangle(a, b, c), material);
    scene.addTriangle(Triangle(a, c, d), material);
}

void
addBox(Scene &scene, const Aabb &box, uint16_t material)
{
    const Vec3 &l = box.lo;
    const Vec3 &h = box.hi;
    Vec3 p000{l.x, l.y, l.z}, p001{l.x, l.y, h.z};
    Vec3 p010{l.x, h.y, l.z}, p011{l.x, h.y, h.z};
    Vec3 p100{h.x, l.y, l.z}, p101{h.x, l.y, h.z};
    Vec3 p110{h.x, h.y, l.z}, p111{h.x, h.y, h.z};
    addQuad(scene, p000, p100, p110, p010, material); // -z
    addQuad(scene, p101, p001, p011, p111, material); // +z
    addQuad(scene, p001, p000, p010, p011, material); // -x
    addQuad(scene, p100, p101, p111, p110, material); // +x
    addQuad(scene, p001, p101, p100, p000, material); // -y
    addQuad(scene, p010, p110, p111, p011, material); // +y
}

void
addTerrain(Scene &scene, float x0, float z0, float x1, float z1, int res,
           const std::function<float(float, float)> &height,
           uint16_t material)
{
    SMS_ASSERT(res >= 1, "terrain resolution must be >= 1");
    auto at = [&](int i, int j) {
        float x = x0 + (x1 - x0) * static_cast<float>(i) / res;
        float z = z0 + (z1 - z0) * static_cast<float>(j) / res;
        return Vec3{x, height(x, z), z};
    };
    for (int i = 0; i < res; ++i) {
        for (int j = 0; j < res; ++j) {
            Vec3 a = at(i, j), b = at(i + 1, j);
            Vec3 c = at(i + 1, j + 1), d = at(i, j + 1);
            // Alternate the diagonal for a more irregular tessellation.
            if ((i + j) & 1) {
                scene.addTriangle(Triangle(a, b, c), material);
                scene.addTriangle(Triangle(a, c, d), material);
            } else {
                scene.addTriangle(Triangle(a, b, d), material);
                scene.addTriangle(Triangle(b, c, d), material);
            }
        }
    }
}

void
addIcosphere(Scene &scene, const Vec3 &center, float radius, int subdiv,
             uint16_t material)
{
    const IcoMesh &m = unitIcosphere(subdiv);
    for (const auto &f : m.faces) {
        scene.addTriangle(Triangle(center + m.verts[f[0]] * radius,
                                   center + m.verts[f[1]] * radius,
                                   center + m.verts[f[2]] * radius),
                          material);
    }
}

void
addBlob(Scene &scene, const Vec3 &center, float radius, int subdiv,
        float noise_amp, uint64_t seed, uint16_t material)
{
    const IcoMesh &m = unitIcosphere(subdiv);
    std::vector<Vec3> displaced(m.verts.size());
    for (size_t i = 0; i < m.verts.size(); ++i) {
        float r = radius * (1.0f + noise_amp * sphereNoise(m.verts[i], seed));
        displaced[i] = center + m.verts[i] * r;
    }
    for (const auto &f : m.faces) {
        scene.addTriangle(
            Triangle(displaced[f[0]], displaced[f[1]], displaced[f[2]]),
            material);
    }
}

void
addCylinder(Scene &scene, const Vec3 &base_center, float radius,
            float height, int sides, uint16_t material)
{
    SMS_ASSERT(sides >= 3, "cylinder needs >= 3 sides");
    Vec3 top_center = base_center + Vec3{0, height, 0};
    for (int i = 0; i < sides; ++i) {
        float a0 = 2.0f * kPi * i / sides;
        float a1 = 2.0f * kPi * (i + 1) / sides;
        Vec3 r0{std::cos(a0) * radius, 0, std::sin(a0) * radius};
        Vec3 r1{std::cos(a1) * radius, 0, std::sin(a1) * radius};
        Vec3 b0 = base_center + r0, b1 = base_center + r1;
        Vec3 t0 = top_center + r0, t1 = top_center + r1;
        addQuad(scene, b0, b1, t1, t0, material);
        scene.addTriangle(Triangle(base_center, b1, b0), material);
        scene.addTriangle(Triangle(top_center, t0, t1), material);
    }
}

void
addCone(Scene &scene, const Vec3 &base_center, float radius, float height,
        int sides, uint16_t material)
{
    SMS_ASSERT(sides >= 3, "cone needs >= 3 sides");
    Vec3 apex = base_center + Vec3{0, height, 0};
    for (int i = 0; i < sides; ++i) {
        float a0 = 2.0f * kPi * i / sides;
        float a1 = 2.0f * kPi * (i + 1) / sides;
        Vec3 b0 = base_center +
                  Vec3{std::cos(a0) * radius, 0, std::sin(a0) * radius};
        Vec3 b1 = base_center +
                  Vec3{std::cos(a1) * radius, 0, std::sin(a1) * radius};
        scene.addTriangle(Triangle(b0, b1, apex), material);
        scene.addTriangle(Triangle(base_center, b1, b0), material);
    }
}

void
addRibbon(Scene &scene, const Vec3 &a, const Vec3 &b, float width,
          uint16_t material)
{
    Vec3 axis = b - a;
    // Pick any direction not parallel to the axis to build the width.
    Vec3 helper = std::fabs(axis.y) < 0.9f * length(axis)
                      ? Vec3{0, 1, 0}
                      : Vec3{1, 0, 0};
    Vec3 side = normalize(cross(axis, helper)) * (width * 0.5f);
    addQuad(scene, a - side, b - side, b + side, a + side, material);
}

void
addTree(Scene &scene, const Vec3 &root, float height, float canopy,
        int detail, uint16_t material_trunk, uint16_t material_leaf)
{
    float trunk_h = height * 0.35f;
    addCylinder(scene, root, canopy * 0.12f, trunk_h, detail,
                material_trunk);
    // Three stacked canopy cones.
    for (int layer = 0; layer < 3; ++layer) {
        float frac = static_cast<float>(layer) / 3.0f;
        Vec3 base = root + Vec3{0, trunk_h + frac * (height - trunk_h), 0};
        float r = canopy * (1.0f - 0.25f * layer);
        float h = (height - trunk_h) * 0.55f;
        addCone(scene, base, r, h, detail + 2, material_leaf);
    }
}

void
addClutter(Scene &scene, const Aabb &region, int count, float size,
           Pcg32 &rng, uint16_t material)
{
    Vec3 ext = region.extent();
    for (int i = 0; i < count; ++i) {
        Vec3 p = region.lo + Vec3{rng.nextFloat() * ext.x,
                                  rng.nextFloat() * ext.y,
                                  rng.nextFloat() * ext.z};
        // Random tetrahedron around p.
        Vec3 v[4];
        for (auto &vv : v) {
            vv = p + Vec3{rng.nextRange(-size, size),
                          rng.nextRange(-size, size),
                          rng.nextRange(-size, size)};
        }
        scene.addTriangle(Triangle(v[0], v[1], v[2]), material);
        scene.addTriangle(Triangle(v[0], v[1], v[3]), material);
        scene.addTriangle(Triangle(v[0], v[2], v[3]), material);
        scene.addTriangle(Triangle(v[1], v[2], v[3]), material);
    }
}

} // namespace builders
} // namespace sms
