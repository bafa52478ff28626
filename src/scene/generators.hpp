/**
 * @file
 * Internal declarations of the per-scene generator functions.
 * Users should go through makeScene() in registry.hpp.
 */

#ifndef SMS_SCENE_GENERATORS_HPP
#define SMS_SCENE_GENERATORS_HPP

#include "src/scene/registry.hpp"
#include "src/scene/scene.hpp"

namespace sms {
namespace generators {

/**
 * Resolution/count multiplier for a scale profile.
 * Linear dimension scaling; terrain-style generators square it.
 */
float profileScale(ScaleProfile profile);

void makeWknd(Scene &scene, ScaleProfile profile);
void makeSprng(Scene &scene, ScaleProfile profile);
void makeFox(Scene &scene, ScaleProfile profile);
void makeLands(Scene &scene, ScaleProfile profile);
void makeCrnvl(Scene &scene, ScaleProfile profile);
void makeSpnza(Scene &scene, ScaleProfile profile);
void makeBath(Scene &scene, ScaleProfile profile);
void makeRobot(Scene &scene, ScaleProfile profile);
void makeCar(Scene &scene, ScaleProfile profile);
void makeParty(Scene &scene, ScaleProfile profile);
void makeFrst(Scene &scene, ScaleProfile profile);
void makeBunny(Scene &scene, ScaleProfile profile);
void makeShip(Scene &scene, ScaleProfile profile);
void makeRef(Scene &scene, ScaleProfile profile);
void makeChsnt(Scene &scene, ScaleProfile profile);
void makePark(Scene &scene, ScaleProfile profile);

} // namespace generators
} // namespace sms

#endif // SMS_SCENE_GENERATORS_HPP
