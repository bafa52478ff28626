/**
 * @file
 * Scene registry: the 16 LumiBench stand-in scenes by id.
 *
 * The paper evaluates the LumiBench suite (Table II). We cannot ship
 * those assets, so each scene here is a deterministic procedural
 * generator matched in *structural character* (see DESIGN.md §2) and
 * scaled down so cycle-level simulation of all 16 scenes completes in
 * seconds rather than days.
 */

#ifndef SMS_SCENE_REGISTRY_HPP
#define SMS_SCENE_REGISTRY_HPP

#include <array>
#include <cstdint>
#include <string>

#include "src/scene/scene.hpp"

namespace sms {

/** LumiBench scene identifiers, in the paper's Table II order. */
enum class SceneId : uint8_t
{
    WKND,   ///< "One Weekend": procedural spheres only (0 triangles)
    SPRNG,  ///< spring meadow: terrain + grass blades
    FOX,    ///< organic scanned-mesh animal + ground
    LANDS,  ///< large open terrain
    CRNVL,  ///< carnival: rides, stalls, clutter
    SPNZA,  ///< sponza-style architectural atrium
    BATH,   ///< small reflective bathroom interior
    ROBOT,  ///< densest mesh in the suite
    CAR,    ///< dense vehicle mesh + ground plane
    PARTY,  ///< interior with heavy small-object clutter
    FRST,   ///< instanced forest over terrain
    BUNNY,  ///< single medium scanned mesh
    SHIP,   ///< few long, thin primitives (leaf-heavy traversal)
    REF,    ///< mirror box with spheres (reflection test)
    CHSNT,  ///< single large chestnut tree, dense foliage
    PARK,   ///< mixed park: terrain + trees + structures
};

/** Number of scenes in the suite. */
constexpr int kSceneCount = 16;

/** All scene ids in Table II order. */
const std::array<SceneId, kSceneCount> &allScenes();

/** Scene name as printed by the paper ("WKND", "PARTY", ...). */
const char *sceneName(SceneId id);

/** Parse a scene name; fatal() on unknown names. */
SceneId sceneFromName(const std::string &name);

/**
 * Geometry scale profile.
 *
 * Tiny is for unit tests (hundreds of primitives), Small is the default
 * evaluation scale (thousands to tens of thousands), Large stresses the
 * builders (use SMS_FULL=1 in the benches).
 */
enum class ScaleProfile : uint8_t { Tiny, Small, Large };

/** Paper-reported statistics for a scene (Table II). */
struct PaperSceneInfo
{
    const char *name;
    double triangles_millions; ///< paper triangle count, in millions
    double bvh_mb;             ///< paper BVH footprint, MB
};

/** Paper Table II row for a scene. */
const PaperSceneInfo &paperSceneInfo(SceneId id);

/**
 * Build a scene deterministically. Its primitive arrays end exactly
 * sized.
 *
 * @param max_primitives a bound on the scene's primitive count, when
 *                       the caller knows one (a workload knows it from
 *                       its BVH): the arrays are reserved to it and
 *                       never regrow. 0 grows them as the generator
 *                       emits primitives.
 */
Scene makeScene(SceneId id, ScaleProfile profile = ScaleProfile::Small,
                uint32_t max_primitives = 0);

} // namespace sms

#endif // SMS_SCENE_REGISTRY_HPP
