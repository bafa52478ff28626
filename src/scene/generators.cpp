/**
 * @file
 * The 16 procedural LumiBench stand-in scenes.
 *
 * Each generator is deterministic (fixed PCG seeds) and scaled by the
 * ScaleProfile. Geometry is chosen to match the *traversal character* of
 * the corresponding LumiBench scene: dense meshes for ROBOT/CAR,
 * overlapping foliage for CHSNT/FRST/PARK, long thin primitives for
 * SHIP, shallow well-separated geometry for REF/BATH, spheres only for
 * WKND. See DESIGN.md §2 for the substitution rationale.
 */

#include "src/scene/generators.hpp"

#include <cmath>

#include "src/scene/builders.hpp"
#include "src/util/check.hpp"
#include "src/util/rng.hpp"

namespace sms {
namespace generators {

using namespace builders;

namespace {

constexpr float kPi = 3.14159265358979323846f;

/** Rolling-hill height function used by several outdoor scenes. */
float
hills(float x, float z, float amp, float freq)
{
    return amp * (std::sin(x * freq) * std::cos(z * freq * 0.8f) +
                  0.5f * std::sin(x * freq * 2.3f + 1.7f) *
                      std::sin(z * freq * 1.9f + 0.3f));
}

/** Standard white/grey material set; returns (ground, object) ids. */
struct BasicMaterials
{
    uint16_t ground;
    uint16_t object;
    uint16_t accent;
};

BasicMaterials
addBasicMaterials(Scene &scene)
{
    BasicMaterials m;
    m.ground = scene.addMaterial({{0.45f, 0.5f, 0.4f}, {0, 0, 0}, 0.0f});
    m.object = scene.addMaterial({{0.7f, 0.6f, 0.5f}, {0, 0, 0}, 0.0f});
    m.accent = scene.addMaterial({{0.8f, 0.3f, 0.25f}, {0, 0, 0}, 0.0f});
    return m;
}

void
defaultLight(Scene &scene, const Vec3 &pos)
{
    scene.light.position = pos;
    scene.light.intensity = {160.0f, 150.0f, 140.0f};
}

} // namespace

float
profileScale(ScaleProfile profile)
{
    switch (profile) {
      case ScaleProfile::Tiny:
        return 0.3f;
      case ScaleProfile::Small:
        return 1.0f;
      case ScaleProfile::Large:
        return 2.0f;
    }
    panic("unknown scale profile");
}

void
makeWknd(Scene &scene, ScaleProfile profile)
{
    scene.name = "WKND";
    float s = profileScale(profile);
    Pcg32 rng(0x57444e44, 1);

    uint16_t ground =
        scene.addMaterial({{0.5f, 0.5f, 0.5f}, {0, 0, 0}, 0.0f});
    uint16_t diffuse =
        scene.addMaterial({{0.6f, 0.4f, 0.35f}, {0, 0, 0}, 0.0f});
    uint16_t metal =
        scene.addMaterial({{0.8f, 0.8f, 0.9f}, {0, 0, 0}, 0.85f});

    // Huge ground sphere, as in "Ray Tracing in One Weekend".
    scene.addSphere(Sphere({0, -1000, 0}, 1000.0f), ground);

    int grid = std::max(3, static_cast<int>(30 * s));
    for (int a = -grid; a < grid; ++a) {
        for (int b = -grid; b < grid; ++b) {
            Vec3 center{a + 0.9f * rng.nextFloat(), 0.2f,
                        b + 0.9f * rng.nextFloat()};
            if (length(center - Vec3{4, 0.2f, 0}) < 0.9f)
                continue;
            uint16_t mat = rng.nextFloat() < 0.75f ? diffuse : metal;
            float radius = rng.nextRange(0.16f, 0.34f);
            scene.addSphere(Sphere({center.x, radius, center.z}, radius),
                            mat);
            // Occasional floating sphere: overlapping bounds along
            // camera rays deepen traversal past the flat-grid minimum.
            if (rng.nextFloat() < 0.22f) {
                scene.addSphere(
                    Sphere({center.x + rng.nextRange(-0.3f, 0.3f),
                            rng.nextRange(0.8f, 2.2f),
                            center.z + rng.nextRange(-0.3f, 0.3f)},
                           rng.nextRange(0.15f, 0.3f)),
                    mat);
            }
        }
    }
    scene.addSphere(Sphere({0, 1, 0}, 1.0f), metal);
    scene.addSphere(Sphere({-4, 1, 0}, 1.0f), diffuse);
    scene.addSphere(Sphere({4, 1, 0}, 1.0f), metal);

    scene.camera = {{13, 2, 3}, {0, 0.5f, 0}, {0, 1, 0}, 25.0f};
    defaultLight(scene, {8, 14, 6});
}

void
makeSprng(Scene &scene, ScaleProfile profile)
{
    scene.name = "SPRNG";
    float s = profileScale(profile);
    Pcg32 rng(0x5350524e, 2);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t grass =
        scene.addMaterial({{0.3f, 0.65f, 0.3f}, {0, 0, 0}, 0.0f});

    int res = std::max(6, static_cast<int>(110 * s));
    addTerrain(scene, -20, -20, 20, 20, res,
               [](float x, float z) { return hills(x, z, 0.7f, 0.25f); },
               m.ground);

    // Grass blades: thin upright ribbons scattered over the meadow.
    int blades = static_cast<int>(140000 * s * s);
    for (int i = 0; i < blades; ++i) {
        float x = rng.nextRange(-18, 18);
        float z = rng.nextRange(-18, 18);
        float y = hills(x, z, 0.7f, 0.25f);
        float h = rng.nextRange(0.35f, 0.85f);
        Vec3 sway{rng.nextRange(-0.1f, 0.1f), h, rng.nextRange(-0.1f, 0.1f)};
        addRibbon(scene, {x, y, z}, Vec3{x, y, z} + sway, 0.07f, grass);
    }

    // A few boulders.
    int rocks = std::max(2, static_cast<int>(14 * s));
    for (int i = 0; i < rocks; ++i) {
        float x = rng.nextRange(-12, 12);
        float z = rng.nextRange(-12, 12);
        float y = hills(x, z, 0.7f, 0.25f);
        addBlob(scene, {x, y + 0.4f, z}, rng.nextRange(0.4f, 0.9f), 2, 0.3f,
                0x1234 + i, m.object);
    }

    scene.camera = {{0, 4.5f, 19}, {0, 0.6f, 0}, {0, 1, 0}, 42.0f};
    defaultLight(scene, {6, 18, 8});
}

void
makeFox(Scene &scene, ScaleProfile profile)
{
    scene.name = "FOX";
    float s = profileScale(profile);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t fur =
        scene.addMaterial({{0.85f, 0.45f, 0.2f}, {0, 0, 0}, 0.0f});

    addQuad(scene, {-10, 0, -10}, {10, 0, -10}, {10, 0, 10}, {-10, 0, 10},
            m.ground);

    int body_subdiv = profile == ScaleProfile::Tiny ? 2 : 6;
    // Body: stretched blob.
    addBlob(scene, {0, 1.0f, 0}, 1.1f, body_subdiv, 0.22f, 0xf0f0, fur);
    // Head.
    addBlob(scene, {1.3f, 1.7f, 0}, 0.55f, body_subdiv - 1, 0.25f, 0xf0f1,
            fur);
    // Snout + ears as cones.
    addCone(scene, {1.8f, 1.6f, 0}, 0.2f, 0.5f, 8, fur);
    addCone(scene, {1.2f, 2.1f, -0.2f}, 0.15f, 0.4f, 6, fur);
    addCone(scene, {1.2f, 2.1f, 0.2f}, 0.15f, 0.4f, 6, fur);
    // Legs.
    int sides = std::max(5, static_cast<int>(8 * s));
    addCylinder(scene, {-0.6f, 0, -0.4f}, 0.15f, 1.0f, sides, fur);
    addCylinder(scene, {-0.6f, 0, 0.4f}, 0.15f, 1.0f, sides, fur);
    addCylinder(scene, {0.6f, 0, -0.4f}, 0.15f, 1.0f, sides, fur);
    addCylinder(scene, {0.6f, 0, 0.4f}, 0.15f, 1.0f, sides, fur);
    // Tail.
    addBlob(scene, {-1.6f, 1.2f, 0}, 0.45f, body_subdiv - 1, 0.3f, 0xf0f2,
            fur);

    scene.camera = {{4.5f, 2.5f, 5.5f}, {0.3f, 1.1f, 0}, {0, 1, 0}, 38.0f};
    defaultLight(scene, {4, 9, 5});
}

void
makeLands(Scene &scene, ScaleProfile profile)
{
    scene.name = "LANDS";
    float s = profileScale(profile);
    BasicMaterials m = addBasicMaterials(scene);

    int res = std::max(10, static_cast<int>(420 * s));
    addTerrain(scene, -40, -40, 40, 40, res,
               [](float x, float z) {
                   return hills(x, z, 3.2f, 0.12f) +
                          hills(x * 0.31f, z * 0.29f, 5.0f, 0.07f);
               },
               m.ground);

    // Scattered rocky outcrops.
    Pcg32 rng(0x4c414e44, 4);
    int rocks = std::max(2, static_cast<int>(200 * s));
    for (int i = 0; i < rocks; ++i) {
        float x = rng.nextRange(-30, 30);
        float z = rng.nextRange(-30, 30);
        float y = hills(x, z, 3.2f, 0.12f) +
                  hills(x * 0.31f, z * 0.29f, 5.0f, 0.07f);
        addBlob(scene, {x, y + 0.8f, z}, rng.nextRange(1.2f, 3.2f), 2,
                0.45f, 0xaa00 + i, m.object);
    }

    scene.camera = {{0, 14, 38}, {0, 1, 0}, {0, 1, 0}, 48.0f};
    defaultLight(scene, {15, 30, 20});
}

void
makeCrnvl(Scene &scene, ScaleProfile profile)
{
    scene.name = "CRNVL";
    float s = profileScale(profile);
    Pcg32 rng(0x43524e56, 5);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t bright =
        scene.addMaterial({{0.9f, 0.75f, 0.2f}, {0, 0, 0}, 0.1f});

    addQuad(scene, {-25, 0, -25}, {25, 0, -25}, {25, 0, 25}, {-25, 0, 25},
            m.ground);

    // Ferris wheel: ring of cabins (boxes) + spokes (ribbons).
    int cabins = std::max(6, static_cast<int>(20 * s));
    Vec3 hub{0, 7.5f, -8};
    for (int i = 0; i < cabins; ++i) {
        float a = 2.0f * kPi * i / cabins;
        Vec3 c = hub + Vec3{std::cos(a) * 6.0f, std::sin(a) * 6.0f, 0};
        addBox(scene, Aabb(c - Vec3(0.5f), c + Vec3(0.5f)), bright);
        addRibbon(scene, hub, c, 0.12f, m.object);
    }
    addCylinder(scene, {hub.x - 1.0f, 0, hub.z}, 0.3f, 7.5f, 8, m.object);
    addCylinder(scene, {hub.x + 1.0f, 0, hub.z}, 0.3f, 7.5f, 8, m.object);

    // Carousel.
    addCylinder(scene, {9, 0, 2}, 3.0f, 0.4f, 16, bright);
    addCone(scene, {9, 3.0f, 2}, 3.4f, 1.6f, 16, m.accent);
    int horses = std::max(4, static_cast<int>(12 * s));
    for (int i = 0; i < horses; ++i) {
        float a = 2.0f * kPi * i / horses;
        Vec3 c{9 + std::cos(a) * 2.2f, 1.3f, 2 + std::sin(a) * 2.2f};
        addBlob(scene, c, 0.45f, 2, 0.3f, 0xca0 + i, bright);
        addCylinder(scene, {c.x, 0.4f, c.z}, 0.06f, 2.6f, 5, m.object);
    }

    // Stalls.
    int stalls = std::max(3, static_cast<int>(14 * s));
    for (int i = 0; i < stalls; ++i) {
        float x = rng.nextRange(-20, 20);
        float z = rng.nextRange(4, 20);
        addBox(scene, Aabb({x, 0, z}, {x + 2.5f, 2.2f, z + 2.0f}), m.accent);
        addCone(scene, {x + 1.25f, 2.2f, z + 1.0f}, 2.0f, 1.0f, 4, bright);
    }

    // Ground clutter (litter, props).
    int clutter = static_cast<int>(45000 * s * s);
    addClutter(scene, Aabb({-22, 0.05f, -22}, {22, 1.6f, 22}), clutter,
               0.28f, rng, bright);

    scene.camera = {{0, 6, 24}, {0, 3, -2}, {0, 1, 0}, 46.0f};
    defaultLight(scene, {0, 22, 10});
}

void
makeSpnza(Scene &scene, ScaleProfile profile)
{
    scene.name = "SPNZA";
    float s = profileScale(profile);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t stone =
        scene.addMaterial({{0.75f, 0.7f, 0.6f}, {0, 0, 0}, 0.0f});
    uint16_t fabric =
        scene.addMaterial({{0.6f, 0.2f, 0.2f}, {0, 0, 0}, 0.0f});

    // Atrium shell: floor, end walls, side galleries.
    addQuad(scene, {-18, 0, -8}, {18, 0, -8}, {18, 0, 8}, {-18, 0, 8},
            m.ground);
    addQuad(scene, {-18, 0, -8}, {-18, 0, 8}, {-18, 12, 8}, {-18, 12, -8},
            stone);
    addQuad(scene, {18, 0, 8}, {18, 0, -8}, {18, 12, -8}, {18, 12, 8},
            stone);

    // Two-level colonnades along both sides.
    int columns = std::max(4, static_cast<int>(15 * s));
    int sides = std::max(6, static_cast<int>(10 * s));
    for (int level = 0; level < 2; ++level) {
        float y = level * 5.0f;
        for (int i = 0; i < columns; ++i) {
            float x = -15.0f + 30.0f * i / (columns - 1);
            addCylinder(scene, {x, y, -6.5f}, 0.45f, 4.2f, sides, stone);
            addCylinder(scene, {x, y, 6.5f}, 0.45f, 4.2f, sides, stone);
            // Capitals.
            addBox(scene,
                   Aabb({x - 0.7f, y + 4.2f, -7.2f},
                        {x + 0.7f, y + 5.0f, -5.8f}),
                   stone);
            addBox(scene,
                   Aabb({x - 0.7f, y + 4.2f, 5.8f},
                        {x + 0.7f, y + 5.0f, 7.2f}),
                   stone);
        }
        // Gallery floors.
        addQuad(scene, {-18, y + 5.0f, -8}, {18, y + 5.0f, -8},
                {18, y + 5.0f, -5.5f}, {-18, y + 5.0f, -5.5f}, stone);
        addQuad(scene, {-18, y + 5.0f, 5.5f}, {18, y + 5.0f, 5.5f},
                {18, y + 5.0f, 8}, {-18, y + 5.0f, 8}, stone);
    }

    // Hanging curtains (the famous sponza drapes) as ribbon strips.
    Pcg32 rng(0x53504e5a, 6);
    int curtains = std::max(3, static_cast<int>(12 * s));
    for (int i = 0; i < curtains; ++i) {
        float x = -13.0f + 26.0f * i / std::max(1, curtains - 1);
        float zside = (i & 1) ? -5.8f : 5.8f;
        for (int strip = 0; strip < 6; ++strip) {
            float xo = x + 0.22f * strip;
            addRibbon(scene, {xo, 9.5f, zside},
                      {xo + rng.nextRange(-0.15f, 0.15f), 5.2f,
                       zside + rng.nextRange(-0.3f, 0.3f)},
                      0.2f, fabric);
        }
    }

    // Floor props.
    int props = static_cast<int>(28000 * s * s);
    addClutter(scene, Aabb({-14, 0.05f, -4.5f}, {14, 1.6f, 4.5f}), props,
               0.3f, rng, m.accent);

    scene.camera = {{-14, 3.5f, 0}, {10, 4, 0}, {0, 1, 0}, 52.0f};
    defaultLight(scene, {0, 11, 0});
}

void
makeBath(Scene &scene, ScaleProfile profile)
{
    scene.name = "BATH";
    float s = profileScale(profile);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t tile =
        scene.addMaterial({{0.85f, 0.9f, 0.92f}, {0, 0, 0}, 0.25f});
    uint16_t mirror =
        scene.addMaterial({{0.9f, 0.9f, 0.9f}, {0, 0, 0}, 0.9f});
    uint16_t ceramic =
        scene.addMaterial({{0.95f, 0.95f, 0.95f}, {0, 0, 0}, 0.15f});

    // Tiled room interior: lightly tessellated floor and walls so the
    // BVH is shallow and traversals are short (the paper notes BATH
    // rarely needs more than the 8-entry primary stack).
    int res = std::max(4, static_cast<int>(34 * s));
    auto flat = [](float, float) { return 0.0f; };
    addTerrain(scene, -4, -4, 4, 4, res, flat, tile);
    // Back wall (rotate terrain pattern by hand with quads).
    for (int i = 0; i < res; ++i) {
        float x0 = -4 + 8.0f * i / res;
        float x1 = -4 + 8.0f * (i + 1) / res;
        addQuad(scene, {x0, 0, -4}, {x1, 0, -4}, {x1, 3.2f, -4},
                {x0, 3.2f, -4}, tile);
        addQuad(scene, {-4, 0, x1}, {-4, 0, x0}, {-4, 3.2f, x0},
                {-4, 3.2f, x1}, tile);
    }

    // Bathtub: hollow box approximation.
    addBox(scene, Aabb({-2.8f, 0, -3.4f}, {-0.4f, 0.9f, -1.8f}), ceramic);
    // Sink pedestal + bowl.
    addCylinder(scene, {2.4f, 0, -3.0f}, 0.25f, 0.9f, 10, ceramic);
    addCylinder(scene, {2.4f, 0.9f, -3.0f}, 0.55f, 0.25f, 12, ceramic);
    // Mirror above the sink.
    addQuad(scene, {1.6f, 1.6f, -3.95f}, {3.2f, 1.6f, -3.95f},
            {3.2f, 2.8f, -3.95f}, {1.6f, 2.8f, -3.95f}, mirror);
    // A few toiletries.
    Pcg32 rng(0x42415448, 7);
    for (int i = 0; i < std::max(6, (int)(26 * s)); ++i) {
        float x = rng.nextRange(1.8f, 3.0f);
        float z = rng.nextRange(-3.3f, -2.7f);
        addCylinder(scene, {x, 1.15f, z}, 0.05f, rng.nextRange(0.1f, 0.3f),
                    6, m.accent);
    }

    scene.camera = {{2.8f, 1.8f, 3.2f}, {-0.5f, 1.0f, -2.5f}, {0, 1, 0},
                    50.0f};
    defaultLight(scene, {0, 3.0f, 0});
}

void
makeRobot(Scene &scene, ScaleProfile profile)
{
    scene.name = "ROBOT";
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t metal =
        scene.addMaterial({{0.6f, 0.62f, 0.68f}, {0, 0, 0}, 0.35f});

    addQuad(scene, {-8, 0, -8}, {8, 0, -8}, {8, 0, 8}, {-8, 0, 8},
            m.ground);

    // Densest mesh in the suite: high-subdivision blobs for torso,
    // head and limbs.
    int big = profile == ScaleProfile::Tiny ? 2 : 6;
    int small = profile == ScaleProfile::Tiny ? 1 : 4;
    addBlob(scene, {0, 2.4f, 0}, 1.3f, big, 0.18f, 0xb00, metal);
    addBlob(scene, {0, 4.3f, 0}, 0.7f, small + 1, 0.15f, 0xb01, metal);
    // Arms and legs: chains of blobs.
    for (int side = -1; side <= 1; side += 2) {
        addBlob(scene, {side * 1.6f, 3.0f, 0}, 0.45f, small, 0.2f,
                0xb10 + side, metal);
        addBlob(scene, {side * 1.9f, 2.0f, 0.2f}, 0.4f, small, 0.2f,
                0xb20 + side, metal);
        addBlob(scene, {side * 0.7f, 1.0f, 0}, 0.5f, small, 0.2f,
                0xb30 + side, metal);
        addBlob(scene, {side * 0.7f, 0.25f, 0.3f}, 0.35f, small, 0.2f,
                0xb40 + side, metal);
    }
    // Armor plates: small blobs overlapping the torso surface.
    Pcg32 rng(0x524f4254, 11);
    int plates = profile == ScaleProfile::Tiny ? 4 : 90;
    for (int i = 0; i < plates; ++i) {
        float a = rng.nextRange(0.0f, 6.2831853f);
        float y = rng.nextRange(1.4f, 3.4f);
        addBlob(scene,
                {std::cos(a) * 1.25f, y, std::sin(a) * 1.25f},
                rng.nextRange(0.15f, 0.35f), 2, 0.2f, 0xab00 + i, metal);
    }
    // Antennae.
    addCylinder(scene, {-0.2f, 4.9f, 0}, 0.03f, 0.8f, 5, m.accent);
    addCylinder(scene, {0.2f, 4.9f, 0}, 0.03f, 0.8f, 5, m.accent);

    scene.camera = {{4.5f, 3.2f, 5.5f}, {0, 2.4f, 0}, {0, 1, 0}, 42.0f};
    defaultLight(scene, {4, 9, 4});
}

void
makeCar(Scene &scene, ScaleProfile profile)
{
    scene.name = "CAR";
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t paint =
        scene.addMaterial({{0.7f, 0.12f, 0.1f}, {0, 0, 0}, 0.5f});
    uint16_t rubber =
        scene.addMaterial({{0.1f, 0.1f, 0.1f}, {0, 0, 0}, 0.0f});

    addQuad(scene, {-10, 0, -10}, {10, 0, -10}, {10, 0, 10}, {-10, 0, 10},
            m.ground);

    int body_subdiv = profile == ScaleProfile::Tiny ? 2 : 6;
    // Body shell: big displaced blob flattened by construction of two
    // overlapping blobs (hood + cabin).
    addBlob(scene, {0, 0.9f, 0}, 1.6f, body_subdiv, 0.12f, 0xca1, paint);
    addBlob(scene, {-0.4f, 1.5f, 0}, 1.0f, body_subdiv - 1, 0.1f, 0xca2,
            paint);
    // Accessories: mirrors, lights, spoiler — small blobs overlapping
    // the shell, deepening traversal around the body.
    Pcg32 rng(0x43415230, 8);
    int bits = profile == ScaleProfile::Tiny ? 4 : 60;
    for (int i = 0; i < bits; ++i) {
        float a = rng.nextRange(0.0f, 6.2831853f);
        Vec3 c{std::cos(a) * rng.nextRange(1.2f, 1.7f),
               rng.nextRange(0.5f, 1.6f),
               std::sin(a) * rng.nextRange(0.7f, 1.1f)};
        addBlob(scene, c, rng.nextRange(0.12f, 0.3f), 2, 0.25f,
                0xcc00 + i, paint);
    }
    // Wheels.
    int sides = profile == ScaleProfile::Tiny ? 8 : 20;
    for (int sx = -1; sx <= 1; sx += 2) {
        for (int sz = -1; sz <= 1; sz += 2) {
            Vec3 c{sx * 1.2f, 0.0f, sz * 0.95f};
            addCylinder(scene, c, 0.42f, 0.3f, sides, rubber);
        }
    }

    scene.camera = {{4.2f, 2.2f, 4.8f}, {0, 0.9f, 0}, {0, 1, 0}, 40.0f};
    defaultLight(scene, {5, 8, 5});
}

void
makeParty(Scene &scene, ScaleProfile profile)
{
    scene.name = "PARTY";
    float s = profileScale(profile);
    Pcg32 rng(0x50415254, 9);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t confetti =
        scene.addMaterial({{0.9f, 0.4f, 0.6f}, {0, 0, 0}, 0.0f});
    uint16_t balloon =
        scene.addMaterial({{0.4f, 0.5f, 0.9f}, {0, 0, 0}, 0.2f});

    // Room shell.
    addQuad(scene, {-10, 0, -10}, {10, 0, -10}, {10, 0, 10}, {-10, 0, 10},
            m.ground);
    addQuad(scene, {-10, 0, -10}, {-10, 0, 10}, {-10, 6, 10}, {-10, 6, -10},
            m.object);
    addQuad(scene, {10, 0, 10}, {10, 0, -10}, {10, 6, -10}, {10, 6, 10},
            m.object);
    addQuad(scene, {-10, 0, -10}, {10, 0, -10}, {10, 6, -10}, {-10, 6, -10},
            m.object);
    addQuad(scene, {-10, 6, -10}, {10, 6, -10}, {10, 6, 10}, {-10, 6, 10},
            m.object);

    // Tables with props.
    int tables = std::max(2, static_cast<int>(8 * s));
    for (int i = 0; i < tables; ++i) {
        float x = rng.nextRange(-7, 7);
        float z = rng.nextRange(-7, 7);
        addBox(scene, Aabb({x, 0.9f, z}, {x + 2.2f, 1.05f, z + 1.2f}),
               m.object);
        for (int leg = 0; leg < 4; ++leg) {
            float lx = x + (leg & 1 ? 2.0f : 0.2f);
            float lz = z + (leg & 2 ? 1.0f : 0.2f);
            addCylinder(scene, {lx, 0, lz}, 0.06f, 0.9f, 5, m.object);
        }
        addClutter(scene,
                   Aabb({x, 1.05f, z}, {x + 2.2f, 1.5f, z + 1.2f}),
                   static_cast<int>(30 * s), 0.1f, rng, confetti);
    }

    // Balloons near the ceiling.
    int balloons = std::max(4, static_cast<int>(40 * s));
    for (int i = 0; i < balloons; ++i) {
        Vec3 c{rng.nextRange(-8, 8), rng.nextRange(4.2f, 5.6f),
               rng.nextRange(-8, 8)};
        addIcosphere(scene, c, rng.nextRange(0.25f, 0.45f), 2, balloon);
        addRibbon(scene, c, c - Vec3{0.1f, rng.nextRange(1.0f, 2.2f), 0.1f},
                  0.02f, confetti);
    }

    // Confetti cloud: the heavy clutter that drives PARTY's divergent
    // stack depths (Fig. 10 uses this scene).
    int bits = static_cast<int>(90000 * s * s);
    addClutter(scene, Aabb({-9, 0.1f, -9}, {9, 5.8f, 9}), bits, 0.13f, rng,
               confetti);

    scene.camera = {{0, 3.0f, 9.2f}, {0, 1.6f, 0}, {0, 1, 0}, 55.0f};
    defaultLight(scene, {0, 5.6f, 0});
}

void
makeFrst(Scene &scene, ScaleProfile profile)
{
    scene.name = "FRST";
    float s = profileScale(profile);
    Pcg32 rng(0x46525354, 10);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t trunk =
        scene.addMaterial({{0.4f, 0.28f, 0.18f}, {0, 0, 0}, 0.0f});
    uint16_t leaf =
        scene.addMaterial({{0.18f, 0.45f, 0.2f}, {0, 0, 0}, 0.0f});

    int res = std::max(8, static_cast<int>(44 * s));
    auto ground_h = [](float x, float z) {
        return hills(x, z, 1.2f, 0.15f);
    };
    addTerrain(scene, -25, -25, 25, 25, res, ground_h, m.ground);

    int trees = std::max(8, static_cast<int>(4200 * s * s));
    int detail = profile == ScaleProfile::Tiny ? 4 : 6;
    for (int i = 0; i < trees; ++i) {
        float x = rng.nextRange(-23, 23);
        float z = rng.nextRange(-23, 23);
        float h = rng.nextRange(2.2f, 4.5f);
        addTree(scene, {x, ground_h(x, z), z}, h, h * 0.38f, detail, trunk,
                leaf);
    }

    // Undergrowth.
    int shrubs = static_cast<int>(26000 * s * s);
    addClutter(scene, Aabb({-23, 0.0f, -23}, {23, 1.6f, 23}), shrubs,
               0.32f, rng, leaf);

    scene.camera = {{0, 3.4f, 23}, {0, 2.0f, 0}, {0, 1, 0}, 50.0f};
    defaultLight(scene, {10, 24, 12});
}

void
makeBunny(Scene &scene, ScaleProfile profile)
{
    scene.name = "BUNNY";
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t fur =
        scene.addMaterial({{0.82f, 0.78f, 0.72f}, {0, 0, 0}, 0.0f});

    addQuad(scene, {-6, 0, -6}, {6, 0, -6}, {6, 0, 6}, {-6, 0, 6},
            m.ground);

    int subdiv = profile == ScaleProfile::Tiny ? 2 : 5;
    addBlob(scene, {0, 1.0f, 0}, 1.0f, subdiv, 0.2f, 0xb0b0, fur);
    addBlob(scene, {0.5f, 2.0f, 0}, 0.5f, subdiv - 1, 0.22f, 0xb0b1, fur);
    // Ears.
    addCone(scene, {0.45f, 2.4f, -0.18f}, 0.14f, 0.8f, 7, fur);
    addCone(scene, {0.45f, 2.4f, 0.18f}, 0.14f, 0.8f, 7, fur);
    // A smaller companion and sparse grass around the base.
    addBlob(scene, {-1.8f, 0.6f, 0.9f}, 0.6f, subdiv - 1, 0.2f, 0xb0b2,
            fur);
    Pcg32 rng(0x42554e59, 16);
    int tufts = profile == ScaleProfile::Tiny ? 40 : 5200;
    for (int i = 0; i < tufts; ++i) {
        float x = rng.nextRange(-5, 5);
        float z = rng.nextRange(-5, 5);
        addRibbon(scene, {x, 0, z},
                  {x + rng.nextRange(-0.1f, 0.1f),
                   rng.nextRange(0.2f, 0.5f),
                   z + rng.nextRange(-0.1f, 0.1f)},
                  0.05f, m.ground);
    }

    scene.camera = {{3.2f, 2.0f, 3.6f}, {0, 1.2f, 0}, {0, 1, 0}, 40.0f};
    defaultLight(scene, {3, 7, 4});
}

void
makeShip(Scene &scene, ScaleProfile profile)
{
    scene.name = "SHIP";
    float s = profileScale(profile);
    Pcg32 rng(0x53484950, 12);
    // SHIP uses none of the basic materials, but adding them first
    // keeps its own material ids, and so its renders, unchanged.
    addBasicMaterials(scene);
    uint16_t wood =
        scene.addMaterial({{0.45f, 0.3f, 0.2f}, {0, 0, 0}, 0.0f});
    uint16_t sail =
        scene.addMaterial({{0.9f, 0.88f, 0.8f}, {0, 0, 0}, 0.0f});
    uint16_t sea =
        scene.addMaterial({{0.1f, 0.25f, 0.4f}, {0, 0, 0}, 0.4f});

    // Sea surface.
    addQuad(scene, {-30, 0, -30}, {30, 0, -30}, {30, 0, 30}, {-30, 0, 30},
            sea);

    // Hull: coarse boxes (the paper's SHIP has only 6.3K triangles).
    addBox(scene, Aabb({-6, 0.2f, -1.6f}, {6, 2.0f, 1.6f}), wood);
    addBox(scene, Aabb({-7, 1.2f, -1.0f}, {-6, 2.4f, 1.0f}), wood);
    addBox(scene, Aabb({6, 1.2f, -1.0f}, {7.5f, 2.6f, 1.0f}), wood);

    // Masts.
    addCylinder(scene, {-3, 2.0f, 0}, 0.12f, 9.0f, 7, wood);
    addCylinder(scene, {0.5f, 2.0f, 0}, 0.14f, 10.5f, 7, wood);
    addCylinder(scene, {4, 2.0f, 0}, 0.12f, 8.0f, 7, wood);

    // Yards + sails.
    auto add_sail = [&](const Vec3 &mast_top, float w, float h) {
        addRibbon(scene, mast_top - Vec3{w, 0, 0}, mast_top + Vec3{w, 0, 0},
                  0.1f, wood);
        addQuad(scene, mast_top + Vec3{-w, -h, 0.05f},
                mast_top + Vec3{w, -h, 0.05f},
                mast_top + Vec3{w * 0.9f, -0.2f, 0.05f},
                mast_top + Vec3{-w * 0.9f, -0.2f, 0.05f}, sail);
    };
    add_sail({-3, 10.2f, 0}, 2.4f, 3.4f);
    add_sail({-3, 7.0f, 0}, 2.8f, 2.6f);
    add_sail({0.5f, 11.6f, 0}, 2.8f, 3.8f);
    add_sail({0.5f, 8.0f, 0}, 3.2f, 3.0f);
    add_sail({4, 9.2f, 0}, 2.2f, 3.0f);

    // Rigging: the long thin diagonal primitives that give SHIP its
    // high leaf-to-node access ratio in the paper.
    int lines = std::max(20, static_cast<int>(900 * s));
    Vec3 mast_tips[3] = {{-3, 11.0f, 0}, {0.5f, 12.5f, 0}, {4, 10.0f, 0}};
    for (int i = 0; i < lines; ++i) {
        const Vec3 &tip = mast_tips[rng.nextBounded(3)];
        Vec3 deck{rng.nextRange(-6.5f, 7.0f), 2.0f,
                  rng.nextRange(-1.6f, 1.6f)};
        addRibbon(scene, tip, deck, 0.025f, wood);
        // Ratlines between neighbouring shrouds.
        if ((i & 3) == 0) {
            Vec3 mid = lerp(tip, deck, rng.nextRange(0.3f, 0.7f));
            addRibbon(scene, mid, mid + Vec3{0.8f, -0.2f, 0.3f}, 0.02f,
                      wood);
        }
    }

    scene.camera = {{14, 6, 14}, {0, 4.5f, 0}, {0, 1, 0}, 44.0f};
    defaultLight(scene, {12, 20, 8});
}

void
makeRef(Scene &scene, ScaleProfile profile)
{
    scene.name = "REF";
    float s = profileScale(profile);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t mirror =
        scene.addMaterial({{0.92f, 0.92f, 0.92f}, {0, 0, 0}, 0.95f});
    uint16_t glossy =
        scene.addMaterial({{0.3f, 0.5f, 0.75f}, {0, 0, 0}, 0.6f});

    // Tessellated floor + back mirror wall; geometry is well separated,
    // keeping traversals short as the paper observes for REF.
    int res = std::max(5, static_cast<int>(40 * s));
    auto flat = [](float, float) { return 0.0f; };
    addTerrain(scene, -8, -8, 8, 8, res, flat, m.ground);
    for (int i = 0; i < res; ++i) {
        float x0 = -8 + 16.0f * i / res;
        float x1 = -8 + 16.0f * (i + 1) / res;
        addQuad(scene, {x0, 0, -8}, {x1, 0, -8}, {x1, 6, -8}, {x0, 6, -8},
                mirror);
    }

    // Reflective spheres and pedestals.
    Pcg32 rng(0x52454600, 13);
    int pieces = std::max(3, static_cast<int>(12 * s));
    for (int i = 0; i < pieces; ++i) {
        float x = -6.0f + 12.0f * i / std::max(1, pieces - 1);
        float z = (i & 1) ? -3.0f : -0.5f;
        addBox(scene, Aabb({x - 0.5f, 0, z - 0.5f}, {x + 0.5f, 1.0f, z + 0.5f}),
               m.object);
        scene.addSphere(Sphere({x, 1.6f, z}, 0.6f),
                        (i & 1) ? mirror : glossy);
    }

    scene.camera = {{0, 2.6f, 7.5f}, {0, 1.4f, -2}, {0, 1, 0}, 48.0f};
    defaultLight(scene, {0, 7, 3});
}

void
makeChsnt(Scene &scene, ScaleProfile profile)
{
    scene.name = "CHSNT";
    float s = profileScale(profile);
    Pcg32 rng(0x4348534e, 14);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t bark =
        scene.addMaterial({{0.35f, 0.25f, 0.16f}, {0, 0, 0}, 0.0f});
    uint16_t leaf =
        scene.addMaterial({{0.22f, 0.5f, 0.18f}, {0, 0, 0}, 0.0f});

    int res = std::max(6, static_cast<int>(16 * s));
    addTerrain(scene, -14, -14, 14, 14, res,
               [](float x, float z) { return hills(x, z, 0.3f, 0.3f); },
               m.ground);

    // Massive trunk + primary branches.
    addCylinder(scene, {0, 0, 0}, 0.8f, 5.0f, 12, bark);
    int branches = std::max(4, static_cast<int>(16 * s));
    for (int i = 0; i < branches; ++i) {
        float a = 2.0f * kPi * i / branches;
        Vec3 base{0, rng.nextRange(3.4f, 4.8f), 0};
        Vec3 tip = base + Vec3{std::cos(a) * rng.nextRange(2.5f, 4.5f),
                               rng.nextRange(1.0f, 2.5f),
                               std::sin(a) * rng.nextRange(2.5f, 4.5f)};
        addRibbon(scene, base, tip, 0.25f, bark);
    }

    // Dense, heavily overlapping foliage shell: thousands of leaf
    // tetrahedra packed into a canopy sphere. The overlap forces many
    // child pushes per node — CHSNT is one of the paper's three
    // long-running "complex" scenes.
    int leaves = static_cast<int>(260000 * s * s);
    Vec3 canopy_c{0, 6.5f, 0};
    for (int i = 0; i < leaves; ++i) {
        // Rejection-sample inside the canopy sphere.
        Vec3 p;
        do {
            p = Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                     rng.nextRange(-1, 1)};
        } while (lengthSquared(p) > 1.0f);
        Vec3 c = canopy_c + p * 4.2f;
        Vec3 v0 = c + Vec3{rng.nextRange(-0.3f, 0.3f),
                           rng.nextRange(-0.3f, 0.3f),
                           rng.nextRange(-0.3f, 0.3f)};
        Vec3 v1 = c + Vec3{rng.nextRange(-0.3f, 0.3f),
                           rng.nextRange(-0.3f, 0.3f),
                           rng.nextRange(-0.3f, 0.3f)};
        scene.addTriangle(Triangle(c, v0, v1), leaf);
    }

    scene.camera = {{9, 4.5f, 11}, {0, 5.0f, 0}, {0, 1, 0}, 46.0f};
    defaultLight(scene, {8, 16, 8});
}

void
makePark(Scene &scene, ScaleProfile profile)
{
    scene.name = "PARK";
    float s = profileScale(profile);
    Pcg32 rng(0x5041524b, 15);
    BasicMaterials m = addBasicMaterials(scene);
    uint16_t trunk =
        scene.addMaterial({{0.4f, 0.28f, 0.18f}, {0, 0, 0}, 0.0f});
    uint16_t leaf =
        scene.addMaterial({{0.2f, 0.48f, 0.22f}, {0, 0, 0}, 0.0f});
    uint16_t water =
        scene.addMaterial({{0.15f, 0.3f, 0.45f}, {0, 0, 0}, 0.5f});

    int res = std::max(8, static_cast<int>(56 * s));
    auto ground_h = [](float x, float z) {
        return hills(x, z, 0.9f, 0.13f);
    };
    addTerrain(scene, -28, -28, 28, 28, res, ground_h, m.ground);

    // Pond.
    addQuad(scene, {-6, 0.25f, 4}, {6, 0.25f, 4}, {6, 0.25f, 14},
            {-6, 0.25f, 14}, water);

    // Pavilion.
    for (int i = 0; i < 6; ++i) {
        float a = 2.0f * kPi * i / 6;
        addCylinder(scene, {std::cos(a) * 3.0f + 10, ground_h(10, -8),
                            std::sin(a) * 3.0f - 8},
                    0.2f, 3.0f, 8, m.object);
    }
    addCone(scene, {10, ground_h(10, -8) + 3.0f, -8}, 3.8f, 1.8f, 12,
            m.accent);

    // Trees, denser toward the edges.
    int trees = std::max(6, static_cast<int>(6000 * s * s));
    int detail = profile == ScaleProfile::Tiny ? 4 : 6;
    for (int i = 0; i < trees; ++i) {
        float x = rng.nextRange(-26, 26);
        float z = rng.nextRange(-26, 26);
        if (std::fabs(x) < 7 && z > 2 && z < 15)
            continue; // keep the pond clear
        float h = rng.nextRange(2.5f, 5.0f);
        addTree(scene, {x, ground_h(x, z), z}, h, h * 0.4f, detail, trunk,
                leaf);
    }

    // Benches and litter.
    int props = static_cast<int>(50000 * s * s);
    addClutter(scene, Aabb({-24, 0.1f, -24}, {24, 1.6f, 24}), props, 0.26f,
               rng, m.accent);

    scene.camera = {{0, 4.0f, 26}, {2, 1.5f, 0}, {0, 1, 0}, 50.0f};
    defaultLight(scene, {12, 26, 14});
}

} // namespace generators
} // namespace sms
