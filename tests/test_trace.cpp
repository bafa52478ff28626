/**
 * @file
 * Tests for the path-tracer front end: camera, film, and the warp-job
 * generator (structure, determinism, oracle completeness).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "src/trace/camera.hpp"
#include "src/trace/film.hpp"
#include "src/trace/path_tracer.hpp"
#include "src/trace/render.hpp"

namespace sms {
namespace {

TEST(Camera, CenterRayPointsAtLookAt)
{
    CameraDesc desc;
    desc.position = {0, 0, 5};
    desc.lookAt = {0, 0, 0};
    Camera camera(desc, 64, 64);
    Ray ray = camera.generateRay(32, 32, 0.0f, 0.0f);
    EXPECT_NEAR(length(ray.origin - desc.position), 0.0f, 1e-6f);
    EXPECT_NEAR(ray.dir.z, -1.0f, 0.05f);
    EXPECT_NEAR(length(ray.dir), 1.0f, 1e-5f);
}

TEST(Camera, CornersDivergeSymmetrically)
{
    CameraDesc desc;
    desc.position = {0, 0, 5};
    desc.lookAt = {0, 0, 0};
    Camera camera(desc, 64, 64);
    Ray left = camera.generateRay(0, 32, 0.5f, 0.5f);
    Ray right = camera.generateRay(63, 32, 0.5f, 0.5f);
    EXPECT_LT(left.dir.x, 0.0f);
    EXPECT_GT(right.dir.x, 0.0f);
    EXPECT_NEAR(left.dir.x, -right.dir.x, 0.05f);
    Ray bottom = camera.generateRay(32, 0, 0.5f, 0.5f);
    Ray top = camera.generateRay(32, 63, 0.5f, 0.5f);
    EXPECT_LT(bottom.dir.y, 0.0f);
    EXPECT_GT(top.dir.y, 0.0f);
}

TEST(Camera, WiderFovSpreadsRays)
{
    CameraDesc narrow_desc;
    narrow_desc.verticalFovDeg = 30.0f;
    CameraDesc wide_desc;
    wide_desc.verticalFovDeg = 90.0f;
    Camera narrow(narrow_desc, 32, 32);
    Camera wide(wide_desc, 32, 32);
    float narrow_spread =
        std::fabs(narrow.generateRay(0, 16, 0.5f, 0.5f).dir.x);
    float wide_spread =
        std::fabs(wide.generateRay(0, 16, 0.5f, 0.5f).dir.x);
    EXPECT_GT(wide_spread, narrow_spread);
}

TEST(Film, AccumulateAndNormalize)
{
    Film film(4, 4);
    film.add(1, 2, {2, 4, 6});
    film.add(1, 2, {2, 0, 2});
    film.normalize(2);
    EXPECT_EQ(film.at(1, 2), Vec3(2, 2, 4));
    EXPECT_EQ(film.at(0, 0), Vec3(0, 0, 0));
}

TEST(Film, HashDetectsDifferences)
{
    Film a(8, 8), b(8, 8);
    EXPECT_EQ(a.contentHash(), b.contentHash());
    b.add(3, 3, {0.5f, 0, 0});
    EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(Film, WritesValidPpm)
{
    Film film(4, 2);
    film.add(0, 0, {1, 0, 0});
    std::string path = ::testing::TempDir() + "sms_test.ppm";
    ASSERT_TRUE(film.writePpm(path));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char magic[3] = {};
    ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
    EXPECT_EQ(magic[0], 'P');
    EXPECT_EQ(magic[1], '6');
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_GE(size, static_cast<long>(4 * 2 * 3));
}

TEST(RenderParams, ComplexScenesUseReducedScale)
{
    // §VII-A: CHSNT, ROBOT, PARK render at 32x32 with 1 spp.
    for (SceneId id : {SceneId::CHSNT, SceneId::ROBOT, SceneId::PARK}) {
        RenderParams p = RenderParams::forScene(id);
        EXPECT_EQ(p.width, 32u);
        EXPECT_EQ(p.spp, 1u);
    }
    RenderParams normal = RenderParams::forScene(SceneId::BUNNY);
    EXPECT_GT(normal.width, 32u);
}

class JobGenTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        scene_ = new Scene(makeScene(SceneId::SHIP, ScaleProfile::Tiny));
        bvh_ = new WideBvh(WideBvh::build(*scene_));
        RenderParams params;
        params.width = 16;
        params.height = 16;
        params.spp = 2;
        params.max_bounces = 2;
        out_ = new RenderOutput(
            renderAndBuildJobs(*scene_, *bvh_, params));
    }

    static void
    TearDownTestSuite()
    {
        delete out_;
        delete bvh_;
        delete scene_;
        out_ = nullptr;
        bvh_ = nullptr;
        scene_ = nullptr;
    }

    static Scene *scene_;
    static WideBvh *bvh_;
    static RenderOutput *out_;
};

Scene *JobGenTest::scene_ = nullptr;
WideBvh *JobGenTest::bvh_ = nullptr;
RenderOutput *JobGenTest::out_ = nullptr;

TEST_F(JobGenTest, JobIdsAreDenseAndParentsPrecede)
{
    for (uint32_t i = 0; i < out_->jobs.size(); ++i) {
        const WarpJob &job = out_->jobs[i];
        EXPECT_EQ(job.job_id, i);
        if (job.parent >= 0) {
            EXPECT_LT(static_cast<uint32_t>(job.parent), i);
        }
    }
}

TEST_F(JobGenTest, WarpChainsAreSequential)
{
    // Jobs of one warp form a single chain: every non-root job's
    // parent belongs to the same warp.
    for (const WarpJob &job : out_->jobs) {
        if (job.parent >= 0) {
            EXPECT_EQ(out_->jobs[job.parent].warp_id, job.warp_id);
        }
    }
}

TEST_F(JobGenTest, PrimaryJobsHaveAllLanesActive)
{
    // 16x16 x 2 spp = 512 paths = 16 full warps.
    uint32_t primaries = 0;
    for (const WarpJob &job : out_->jobs) {
        if (job.parent == -1) {
            ++primaries;
            EXPECT_FALSE(job.any_hit);
            EXPECT_EQ(job.activeLanes(), kWarpSize);
        }
    }
    EXPECT_EQ(primaries, 16u);
}

TEST_F(JobGenTest, ShadowJobsAreAnyHitWithBoundedSegments)
{
    uint32_t shadows = 0;
    for (const WarpJob &job : out_->jobs) {
        if (!job.any_hit)
            continue;
        ++shadows;
        for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
            if (!job.active[lane])
                continue;
            // Shadow rays carry a finite segment (to the light).
            EXPECT_LT(job.rays[lane].tMax, kRayInfinity);
        }
    }
    EXPECT_GT(shadows, 0u);
}

TEST_F(JobGenTest, OraclesMatchReferenceTraversal)
{
    int checked = 0;
    for (const WarpJob &job : out_->jobs) {
        for (uint32_t lane = 0; lane < kWarpSize && checked < 300;
             ++lane) {
            if (!job.active[lane])
                continue;
            ++checked;
            if (job.any_hit) {
                EXPECT_EQ(traverseAnyHit(*scene_, *bvh_, job.rays[lane]),
                          job.expected_hit[lane]);
            } else {
                HitRecord hit =
                    traverseClosest(*scene_, *bvh_, job.rays[lane]);
                EXPECT_EQ(hit.valid(), job.expected_hit[lane]);
                if (hit.valid()) {
                    EXPECT_EQ(hit.primitive, job.expected_prim[lane]);
                }
            }
        }
    }
    EXPECT_GE(checked, 300);
}

TEST_F(JobGenTest, ActiveLanesShrinkAlongChains)
{
    // Paths die over bounces: a closest-hit job never has more active
    // lanes than its warp's previous closest-hit job.
    std::map<uint32_t, uint32_t> last_active;
    for (const WarpJob &job : out_->jobs) {
        if (job.any_hit)
            continue;
        auto it = last_active.find(job.warp_id);
        if (it != last_active.end()) {
            EXPECT_LE(job.activeLanes(), it->second);
        }
        last_active[job.warp_id] = job.activeLanes();
    }
}

TEST(PathTracer, DeterministicImages)
{
    Scene scene = makeScene(SceneId::REF, ScaleProfile::Tiny);
    WideBvh bvh = WideBvh::build(scene);
    RenderParams params;
    params.width = 16;
    params.height = 16;
    RenderOutput a = renderAndBuildJobs(scene, bvh, params);
    RenderOutput b = renderAndBuildJobs(scene, bvh, params);
    EXPECT_EQ(a.film.contentHash(), b.film.contentHash());
    EXPECT_EQ(a.jobs.size(), b.jobs.size());
    EXPECT_EQ(a.rays, b.rays);
}

TEST(PathTracer, SeedChangesImage)
{
    Scene scene = makeScene(SceneId::REF, ScaleProfile::Tiny);
    WideBvh bvh = WideBvh::build(scene);
    RenderParams params;
    params.width = 16;
    params.height = 16;
    params.spp = 2;
    RenderOutput a = renderAndBuildJobs(scene, bvh, params);
    params.seed = 99;
    RenderOutput b = renderAndBuildJobs(scene, bvh, params);
    EXPECT_NE(a.film.contentHash(), b.film.contentHash());
}

TEST(PathTracer, ImageHasSignal)
{
    Scene scene = makeScene(SceneId::BUNNY, ScaleProfile::Tiny);
    WideBvh bvh = WideBvh::build(scene);
    RenderParams params;
    params.width = 24;
    params.height = 24;
    RenderOutput out = renderAndBuildJobs(scene, bvh, params);
    double total = 0.0;
    uint32_t lit = 0;
    for (uint32_t y = 0; y < params.height; ++y) {
        for (uint32_t x = 0; x < params.width; ++x) {
            const Vec3 &p = out.film.at(x, y);
            total += p.x + p.y + p.z;
            lit += (p.x + p.y + p.z) > 1e-4f ? 1 : 0;
        }
    }
    EXPECT_GT(total, 0.1);
    EXPECT_GT(lit, params.width * params.height / 4);
}

TEST(PathTracer, NoShadowRaysWhenDisabled)
{
    Scene scene = makeScene(SceneId::BUNNY, ScaleProfile::Tiny);
    WideBvh bvh = WideBvh::build(scene);
    RenderParams params;
    params.width = 16;
    params.height = 16;
    params.shadow_rays = false;
    RenderOutput out = renderAndBuildJobs(scene, bvh, params);
    for (const WarpJob &job : out.jobs)
        EXPECT_FALSE(job.any_hit);
}

TEST(PathTracer, BounceDepthBoundsSegments)
{
    Scene scene = makeScene(SceneId::BUNNY, ScaleProfile::Tiny);
    WideBvh bvh = WideBvh::build(scene);
    RenderParams params;
    params.width = 16;
    params.height = 16;
    params.max_bounces = 0;
    RenderOutput out = renderAndBuildJobs(scene, bvh, params);
    for (const WarpJob &job : out.jobs)
        EXPECT_EQ(job.segment, 0u);

    params.max_bounces = 3;
    RenderOutput deep = renderAndBuildJobs(scene, bvh, params);
    uint32_t max_segment = 0;
    for (const WarpJob &job : deep.jobs)
        max_segment = std::max(max_segment, job.segment);
    EXPECT_GT(max_segment, 0u);
    EXPECT_LE(max_segment, 3u);
    EXPECT_GT(deep.jobs.size(), out.jobs.size());
}

} // namespace
} // namespace sms
