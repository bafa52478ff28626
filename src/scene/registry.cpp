/**
 * @file
 * Scene registry implementation: id <-> name mapping, paper Table II
 * data, and the makeScene() dispatcher.
 */

#include "src/scene/registry.hpp"

#include "src/scene/generators.hpp"
#include "src/util/check.hpp"

namespace sms {

namespace {

const std::array<SceneId, kSceneCount> kAllScenes = {
    SceneId::WKND,  SceneId::SPRNG, SceneId::FOX,   SceneId::LANDS,
    SceneId::CRNVL, SceneId::SPNZA, SceneId::BATH,  SceneId::ROBOT,
    SceneId::CAR,   SceneId::PARTY, SceneId::FRST,  SceneId::BUNNY,
    SceneId::SHIP,  SceneId::REF,   SceneId::CHSNT, SceneId::PARK,
};

// Table II of the paper (triangle counts in millions, BVH size in MB).
const PaperSceneInfo kPaperInfo[kSceneCount] = {
    {"WKND", 0.0, 0.2},      {"SPRNG", 1.9, 178.0},
    {"FOX", 1.6, 648.5},     {"LANDS", 3.3, 303.5},
    {"CRNVL", 0.4496, 60.7}, {"SPNZA", 0.2623, 22.8},
    {"BATH", 0.4236, 112.8}, {"ROBOT", 20.6, 1869.0},
    {"CAR", 12.7, 1328.2},   {"PARTY", 1.7, 156.1},
    {"FRST", 4.2, 380.5},    {"BUNNY", 0.1441, 13.2},
    {"SHIP", 0.0063, 0.5},   {"REF", 0.4489, 40.4},
    {"CHSNT", 0.3132, 28.3}, {"PARK", 6.0, 542.5},
};

} // namespace

const std::array<SceneId, kSceneCount> &
allScenes()
{
    return kAllScenes;
}

const char *
sceneName(SceneId id)
{
    return kPaperInfo[static_cast<int>(id)].name;
}

SceneId
sceneFromName(const std::string &name)
{
    for (SceneId id : kAllScenes)
        if (name == sceneName(id))
            return id;
    fatal("unknown scene name '%s'", name.c_str());
}

const PaperSceneInfo &
paperSceneInfo(SceneId id)
{
    return kPaperInfo[static_cast<int>(id)];
}

namespace {

using Generator = void (*)(Scene &, ScaleProfile);

/** The generator that fills in scene @p id. */
Generator
generatorOf(SceneId id)
{
    using namespace generators;
    switch (id) {
      case SceneId::WKND:
        return makeWknd;
      case SceneId::SPRNG:
        return makeSprng;
      case SceneId::FOX:
        return makeFox;
      case SceneId::LANDS:
        return makeLands;
      case SceneId::CRNVL:
        return makeCrnvl;
      case SceneId::SPNZA:
        return makeSpnza;
      case SceneId::BATH:
        return makeBath;
      case SceneId::ROBOT:
        return makeRobot;
      case SceneId::CAR:
        return makeCar;
      case SceneId::PARTY:
        return makeParty;
      case SceneId::FRST:
        return makeFrst;
      case SceneId::BUNNY:
        return makeBunny;
      case SceneId::SHIP:
        return makeShip;
      case SceneId::REF:
        return makeRef;
      case SceneId::CHSNT:
        return makeChsnt;
      case SceneId::PARK:
        return makePark;
    }
    panic("unknown scene id %d", static_cast<int>(id));
}

} // namespace

Scene
makeScene(SceneId id, ScaleProfile profile, uint32_t max_primitives)
{
    Scene scene;
    scene.reserve(max_primitives);
    generatorOf(id)(scene, profile);
    scene.shrinkToFit();
    return scene;
}

} // namespace sms
