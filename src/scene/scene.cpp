/**
 * @file
 * Scene container implementation.
 */

#include "src/scene/scene.hpp"

#include "src/util/check.hpp"

namespace sms {

namespace {

/** Bytes of one triangle record in simulated memory (3 x vec3 + pad). */
constexpr uint64_t kTriangleBytes = 48;
/** Bytes of one sphere record in simulated memory (center + radius + pad). */
constexpr uint64_t kSphereBytes = 32;

} // namespace

uint16_t
Scene::addMaterial(const Material &m)
{
    SMS_ASSERT(materials_.size() < 0xffff, "too many materials");
    materials_.push_back(m);
    return static_cast<uint16_t>(materials_.size() - 1);
}

void
Scene::addTriangle(const Triangle &t, uint16_t material)
{
    SMS_ASSERT(material < materials_.size(), "material %u out of range",
               material);
    triangles_.push_back(t);
    triangle_materials_.push_back(material);
}

void
Scene::addSphere(const Sphere &s, uint16_t material)
{
    SMS_ASSERT(material < materials_.size(), "material %u out of range",
               material);
    spheres_.push_back(s);
    sphere_materials_.push_back(material);
}

void
Scene::reserve(uint32_t primitives)
{
    triangles_.reserve(primitives);
    triangle_materials_.reserve(primitives);
    spheres_.reserve(primitives);
    sphere_materials_.reserve(primitives);
}

void
Scene::shrinkToFit()
{
    triangles_.shrinkToFit();
    triangle_materials_.shrinkToFit();
    spheres_.shrinkToFit();
    sphere_materials_.shrinkToFit();
}

Aabb
Scene::primitiveBounds(uint32_t id) const
{
    if (id < triangleCount())
        return triangles_[id].bounds();
    return spheres_[id - triangleCount()].bounds();
}

Vec3
Scene::primitiveCentroid(uint32_t id) const
{
    if (id < triangleCount())
        return triangles_[id].centroid();
    return spheres_[id - triangleCount()].center;
}

const Material &
Scene::primitiveMaterial(uint32_t id) const
{
    if (id < triangleCount())
        return materials_[triangle_materials_[id]];
    return materials_[sphere_materials_[id - triangleCount()]];
}

bool
Scene::intersectPrimitive(uint32_t id, Ray &ray, HitRecord &hit) const
{
    if (id < triangleCount()) {
        const Triangle &tri = triangles_[id];
        float t, u, v;
        if (!tri.intersect(ray, t, u, v))
            return false;
        ray.tMax = t;
        hit.t = t;
        hit.primitive = id;
        hit.kind = PrimitiveKind::Triangle;
        hit.u = u;
        hit.v = v;
        Vec3 n = normalize(tri.geometricNormal());
        // Face the normal toward the incoming ray.
        hit.normal = dot(n, ray.dir) < 0.0f ? n : -n;
        return true;
    }
    const Sphere &sph = spheres_[id - triangleCount()];
    float t;
    if (!sph.intersect(ray, t))
        return false;
    ray.tMax = t;
    hit.t = t;
    hit.primitive = id;
    hit.kind = PrimitiveKind::Sphere;
    hit.u = 0.0f;
    hit.v = 0.0f;
    Vec3 n = sph.normalAt(ray.at(t));
    hit.normal = dot(n, ray.dir) < 0.0f ? n : -n;
    return true;
}

Aabb
Scene::bounds() const
{
    Aabb box;
    for (uint32_t i = 0; i < primitiveCount(); ++i)
        box.extend(primitiveBounds(i));
    return box;
}

HitRecord
Scene::intersectBruteForce(const Ray &ray) const
{
    Ray work = ray;
    HitRecord hit;
    for (uint32_t i = 0; i < primitiveCount(); ++i)
        intersectPrimitive(i, work, hit);
    return hit;
}

uint64_t
Scene::primitiveDataBytes() const
{
    return kTriangleBytes * triangleCount() + kSphereBytes * sphereCount();
}

} // namespace sms
