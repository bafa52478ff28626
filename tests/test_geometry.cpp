/**
 * @file
 * Unit and property tests for the geometry primitives: Vec3, Aabb slab
 * test, Möller–Trumbore triangles, and spheres.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/aabb.hpp"
#include "src/geometry/ray.hpp"
#include "src/geometry/sphere.hpp"
#include "src/geometry/triangle.hpp"
#include "src/geometry/vec3.hpp"
#include "src/util/rng.hpp"

namespace sms {
namespace {

Vec3
randomUnit(Pcg32 &rng)
{
    for (;;) {
        Vec3 v{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
               rng.nextRange(-1, 1)};
        float len2 = lengthSquared(v);
        if (len2 > 1e-4f && len2 <= 1.0f)
            return v / std::sqrt(len2);
    }
}

TEST(Vec3, Arithmetic)
{
    Vec3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_EQ(a + b, Vec3(5, 7, 9));
    EXPECT_EQ(b - a, Vec3(3, 3, 3));
    EXPECT_EQ(a * 2.0f, Vec3(2, 4, 6));
    EXPECT_EQ(2.0f * a, a * 2.0f);
    EXPECT_EQ(a * b, Vec3(4, 10, 18));
    EXPECT_EQ(-a, Vec3(-1, -2, -3));
    EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
}

TEST(Vec3, CrossIsOrthogonal)
{
    Pcg32 rng(7);
    for (int i = 0; i < 100; ++i) {
        Vec3 a = randomUnit(rng), b = randomUnit(rng);
        Vec3 c = cross(a, b);
        EXPECT_NEAR(dot(c, a), 0.0f, 1e-5f);
        EXPECT_NEAR(dot(c, b), 0.0f, 1e-5f);
    }
}

TEST(Vec3, NormalizeAndLength)
{
    EXPECT_FLOAT_EQ(length(Vec3(3, 4, 0)), 5.0f);
    Vec3 n = normalize(Vec3(0, 0, 10));
    EXPECT_EQ(n, Vec3(0, 0, 1));
    EXPECT_EQ(normalize(Vec3(0.0f)), Vec3(0.0f)); // zero-safe
}

TEST(Vec3, MinMaxAxis)
{
    Vec3 a{1, 5, 3}, b{2, 0, 4};
    EXPECT_EQ(min(a, b), Vec3(1, 0, 3));
    EXPECT_EQ(max(a, b), Vec3(2, 5, 4));
    EXPECT_EQ(maxAxis(Vec3(1, 2, 3)), 2);
    EXPECT_EQ(maxAxis(Vec3(9, 2, 3)), 0);
    EXPECT_EQ(maxAxis(Vec3(1, 5, 3)), 1);
}

TEST(Vec3, ReflectPreservesLengthAndFlipsNormalComponent)
{
    Pcg32 rng(9);
    for (int i = 0; i < 100; ++i) {
        Vec3 d = randomUnit(rng);
        Vec3 n = randomUnit(rng);
        Vec3 r = reflect(d, n);
        EXPECT_NEAR(length(r), 1.0f, 1e-5f);
        EXPECT_NEAR(dot(r, n), -dot(d, n), 1e-5f);
    }
}

TEST(Aabb, DefaultIsEmpty)
{
    Aabb box;
    EXPECT_TRUE(box.empty());
    EXPECT_FLOAT_EQ(box.surfaceArea(), 0.0f);
}

TEST(Aabb, ExtendAndContain)
{
    Aabb box;
    box.extend({1, 2, 3});
    EXPECT_FALSE(box.empty());
    EXPECT_TRUE(box.contains(Vec3{1, 2, 3}));
    box.extend({-1, 0, 5});
    EXPECT_TRUE(box.contains(Vec3{0, 1, 4}));
    EXPECT_FALSE(box.contains(Vec3{0, 1, 6}));
    EXPECT_FLOAT_EQ(box.surfaceArea(),
                    2.0f * (2 * 2 + 2 * 2 + 2 * 2));
}

TEST(Aabb, ContainsBox)
{
    Aabb outer({0, 0, 0}, {10, 10, 10});
    EXPECT_TRUE(outer.contains(Aabb({1, 1, 1}, {9, 9, 9})));
    EXPECT_FALSE(outer.contains(Aabb({1, 1, 1}, {9, 9, 11})));
    EXPECT_TRUE(outer.contains(Aabb())); // empty box is inside anything
}

TEST(Aabb, SlabHitsAndMisses)
{
    Aabb box({-1, -1, -1}, {1, 1, 1});
    float t;
    Ray hit({-5, 0, 0}, {1, 0, 0});
    ASSERT_TRUE(box.intersect(hit, t));
    EXPECT_NEAR(t, 4.0f, 1e-5f);

    Ray miss({-5, 2, 0}, {1, 0, 0});
    EXPECT_FALSE(box.intersect(miss, t));

    Ray away({-5, 0, 0}, {-1, 0, 0});
    EXPECT_FALSE(box.intersect(away, t));
}

TEST(Aabb, SlabRespectsSegment)
{
    Aabb box({-1, -1, -1}, {1, 1, 1});
    float t;
    Ray short_ray({-5, 0, 0}, {1, 0, 0}, 0.0f, 3.0f);
    EXPECT_FALSE(box.intersect(short_ray, t));
    Ray late_ray({-5, 0, 0}, {1, 0, 0}, 7.0f, 100.0f);
    EXPECT_FALSE(box.intersect(late_ray, t));
}

TEST(Aabb, OriginInsideReportsEntryAtTmin)
{
    Aabb box({-1, -1, -1}, {1, 1, 1});
    float t;
    Ray inside({0, 0, 0}, {0, 1, 0});
    ASSERT_TRUE(box.intersect(inside, t));
    EXPECT_FLOAT_EQ(t, inside.tMin);
}

TEST(Aabb, AxisParallelRayZeroDirection)
{
    Aabb box({-1, -1, -1}, {1, 1, 1});
    float t;
    // Ray parallel to x axis within slab bounds: must hit.
    Ray in_slab({-5, 0.5f, 0.5f}, {1, 0, 0});
    EXPECT_TRUE(box.intersect(in_slab, t));
    // Parallel but outside the y slab: must miss.
    Ray out_slab({-5, 2.0f, 0.5f}, {1, 0, 0});
    EXPECT_FALSE(box.intersect(out_slab, t));
}

TEST(Aabb, PropertySampledPointsAgree)
{
    // Slab test against random boxes/rays cross-checked by sampling
    // points along the ray.
    Pcg32 rng(1234);
    for (int iter = 0; iter < 300; ++iter) {
        Vec3 a{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        Vec3 b{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        Aabb box(min(a, b), max(a, b));
        Ray ray({rng.nextRange(-10, 10), rng.nextRange(-10, 10),
                 rng.nextRange(-10, 10)},
                randomUnit(rng), 0.0f, 40.0f);
        float t;
        bool hit = box.intersect(ray, t);

        bool sampled_hit = false;
        for (int s = 0; s <= 4000; ++s) {
            float ts = 40.0f * s / 4000.0f;
            if (box.contains(ray.at(ts))) {
                sampled_hit = true;
                break;
            }
        }
        // Sampling can miss thin intersections but never invents one.
        if (sampled_hit) {
            EXPECT_TRUE(hit) << "iteration " << iter;
        }
        if (hit) {
            EXPECT_GE(t, ray.tMin);
            EXPECT_LE(t, ray.tMax);
        }
    }
}

TEST(Aabb, MergeCoversBoth)
{
    Aabb a({0, 0, 0}, {1, 1, 1});
    Aabb b({2, -1, 0}, {3, 1, 1});
    Aabb m = Aabb::merge(a, b);
    EXPECT_TRUE(m.contains(a));
    EXPECT_TRUE(m.contains(b));
}

TEST(Triangle, HitBarycentricInterior)
{
    Triangle tri({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
    Ray ray({0.25f, 0.25f, -1}, {0, 0, 1});
    float t, u, v;
    ASSERT_TRUE(tri.intersect(ray, t, u, v));
    EXPECT_NEAR(t, 1.0f, 1e-5f);
    EXPECT_NEAR(u, 0.25f, 1e-5f);
    EXPECT_NEAR(v, 0.25f, 1e-5f);
}

TEST(Triangle, MissOutsideEdges)
{
    Triangle tri({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
    float t, u, v;
    Ray beyond({0.8f, 0.8f, -1}, {0, 0, 1});
    EXPECT_FALSE(tri.intersect(beyond, t, u, v));
    Ray left({-0.1f, 0.5f, -1}, {0, 0, 1});
    EXPECT_FALSE(tri.intersect(left, t, u, v));
}

TEST(Triangle, BackfaceStillHits)
{
    // Möller–Trumbore without culling hits from both sides.
    Triangle tri({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
    Ray ray({0.2f, 0.2f, 1}, {0, 0, -1});
    float t, u, v;
    EXPECT_TRUE(tri.intersect(ray, t, u, v));
}

TEST(Triangle, RespectsSegmentBounds)
{
    Triangle tri({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
    float t, u, v;
    Ray near_miss({0.2f, 0.2f, -1}, {0, 0, 1}, 0.0f, 0.5f);
    EXPECT_FALSE(tri.intersect(near_miss, t, u, v));
    Ray behind({0.2f, 0.2f, -1}, {0, 0, 1}, 1.5f, 5.0f);
    EXPECT_FALSE(tri.intersect(behind, t, u, v));
}

TEST(Triangle, ParallelRayMisses)
{
    Triangle tri({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
    Ray ray({0, 0, 1}, {1, 0, 0});
    float t, u, v;
    EXPECT_FALSE(tri.intersect(ray, t, u, v));
}

TEST(Triangle, DegenerateTriangleNeverHits)
{
    Triangle degenerate({0, 0, 0}, {1, 0, 0}, {2, 0, 0});
    Ray ray({0.5f, -1, 0}, {0, 1, 0});
    float t, u, v;
    EXPECT_FALSE(degenerate.intersect(ray, t, u, v));
}

TEST(Triangle, PropertyHitPointMatchesBarycentric)
{
    Pcg32 rng(77);
    for (int iter = 0; iter < 300; ++iter) {
        Triangle tri(
            {rng.nextRange(-2, 2), rng.nextRange(-2, 2),
             rng.nextRange(-2, 2)},
            {rng.nextRange(-2, 2), rng.nextRange(-2, 2),
             rng.nextRange(-2, 2)},
            {rng.nextRange(-2, 2), rng.nextRange(-2, 2),
             rng.nextRange(-2, 2)});
        if (tri.area() < 1e-3f)
            continue;
        // Aim at a random interior point from a random origin.
        float u0 = rng.nextFloat();
        float v0 = rng.nextFloat() * (1.0f - u0);
        Vec3 target = tri.v0 * (1 - u0 - v0) + tri.v1 * u0 + tri.v2 * v0;
        Vec3 origin = target + randomUnit(rng) * rng.nextRange(0.5f, 4.0f);
        Ray ray(origin, normalize(target - origin), 1e-4f);

        float t, u, v;
        if (!tri.intersect(ray, t, u, v))
            continue; // grazing numeric misses are acceptable
        Vec3 p = ray.at(t);
        Vec3 q = tri.v0 * (1 - u - v) + tri.v1 * u + tri.v2 * v;
        EXPECT_NEAR(length(p - q), 0.0f, 1e-3f);
    }
}

TEST(Triangle, BoundsContainVertices)
{
    Triangle tri({0, 1, 2}, {-1, 4, 0}, {3, -2, 5});
    Aabb box = tri.bounds();
    EXPECT_TRUE(box.contains(tri.v0));
    EXPECT_TRUE(box.contains(tri.v1));
    EXPECT_TRUE(box.contains(tri.v2));
    EXPECT_TRUE(box.contains(tri.centroid()));
}

TEST(Sphere, HitFromOutside)
{
    Sphere s({0, 0, 0}, 1.0f);
    Ray ray({-5, 0, 0}, {1, 0, 0});
    float t;
    ASSERT_TRUE(s.intersect(ray, t));
    EXPECT_NEAR(t, 4.0f, 1e-4f);
    EXPECT_NEAR(length(s.normalAt(ray.at(t)) - Vec3(-1, 0, 0)), 0.0f,
                1e-4f);
}

TEST(Sphere, HitFromInsideTakesFarRoot)
{
    Sphere s({0, 0, 0}, 2.0f);
    Ray ray({0, 0, 0}, {0, 1, 0});
    float t;
    ASSERT_TRUE(s.intersect(ray, t));
    EXPECT_NEAR(t, 2.0f, 1e-4f);
}

TEST(Sphere, MissAndBehind)
{
    Sphere s({0, 0, 0}, 1.0f);
    float t;
    Ray miss({-5, 3, 0}, {1, 0, 0});
    EXPECT_FALSE(s.intersect(miss, t));
    Ray behind({5, 0, 0}, {1, 0, 0});
    EXPECT_FALSE(s.intersect(behind, t));
}

TEST(Sphere, SegmentBounds)
{
    Sphere s({0, 0, 0}, 1.0f);
    float t;
    Ray short_ray({-5, 0, 0}, {1, 0, 0}, 0.0f, 3.0f);
    EXPECT_FALSE(s.intersect(short_ray, t));
}

TEST(Sphere, PropertyHitPointOnSurface)
{
    Pcg32 rng(55);
    for (int iter = 0; iter < 300; ++iter) {
        Sphere s({rng.nextRange(-3, 3), rng.nextRange(-3, 3),
                  rng.nextRange(-3, 3)},
                 rng.nextRange(0.2f, 2.0f));
        Ray ray({rng.nextRange(-8, 8), rng.nextRange(-8, 8),
                 rng.nextRange(-8, 8)},
                randomUnit(rng));
        float t;
        if (!s.intersect(ray, t))
            continue;
        EXPECT_NEAR(length(ray.at(t) - s.center), s.radius, 1e-3f);
        EXPECT_GE(t, ray.tMin);
    }
}

TEST(Sphere, BoundsContainSurface)
{
    Sphere s({1, 2, 3}, 1.5f);
    Aabb box = s.bounds();
    EXPECT_TRUE(box.contains(s.center + Vec3(1.5f, 0, 0)));
    EXPECT_TRUE(box.contains(s.center - Vec3(0, 1.5f, 0)));
}

} // namespace
} // namespace sms
