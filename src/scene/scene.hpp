/**
 * @file
 * Scene container: primitives, materials, camera and light.
 *
 * Scenes are generated procedurally (see registry.hpp) as deterministic
 * stand-ins for the LumiBench suite used by the paper. A scene exposes a
 * unified primitive index space: ids [0, triangleCount) are triangles,
 * ids [triangleCount, primitiveCount) are spheres. The BVH builder and
 * traversal code only ever deal in these unified ids.
 */

#ifndef SMS_SCENE_SCENE_HPP
#define SMS_SCENE_SCENE_HPP

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/geometry/aabb.hpp"
#include "src/geometry/ray.hpp"
#include "src/geometry/sphere.hpp"
#include "src/geometry/triangle.hpp"
#include "src/geometry/vec3.hpp"

namespace sms {

/** Simple surface description for the path tracer's shading model. */
struct Material
{
    Vec3 albedo{0.8f, 0.8f, 0.8f};
    Vec3 emission{0.0f, 0.0f, 0.0f};
    /** 0 = pure diffuse, 1 = pure mirror. */
    float reflectivity = 0.0f;
};

/** Pinhole camera description. */
struct CameraDesc
{
    Vec3 position{0.0f, 1.0f, 5.0f};
    Vec3 lookAt{0.0f, 0.0f, 0.0f};
    Vec3 up{0.0f, 1.0f, 0.0f};
    float verticalFovDeg = 45.0f;
};

/** Single point light used for shadow rays. */
struct LightDesc
{
    Vec3 position{0.0f, 10.0f, 0.0f};
    Vec3 intensity{60.0f, 60.0f, 60.0f};
};

/**
 * A growable array of trivially copyable elements that grows with
 * realloc(). glibc serves a block at or above its mmap threshold
 * (fixed at 1 MiB, src/trace/render.cpp) by remapping its pages, so
 * growth never copies the filled storage or faults it in again, as a
 * std::vector's allocate-copy-free regrowth does. The scene's
 * primitive arrays are the largest buffers a scene generator grows.
 */
template <typename T>
class PodArray
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    PodArray() = default;
    PodArray(const PodArray &other)
    {
        reserve(other.size_);
        if (other.size_ != 0)
            std::memcpy(static_cast<void *>(data_), other.data_,
                        other.size_ * sizeof(T));
        size_ = other.size_;
    }
    PodArray(PodArray &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          capacity_(std::exchange(other.capacity_, 0))
    {}
    PodArray &
    operator=(PodArray other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        std::swap(capacity_, other.capacity_);
        return *this;
    }
    ~PodArray() { std::free(data_); }

    size_t size() const { return size_; }
    size_t capacity() const { return capacity_; }
    const T *data() const { return data_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    const T &operator[](size_t i) const { return data_[i]; }

    void
    push_back(const T &value)
    {
        if (size_ == capacity_)
            setCapacity(capacity_ ? 2 * capacity_ : 16);
        data_[size_++] = value;
    }

    /** Room for @p n elements, so that many are appended in place. */
    void
    reserve(size_t n)
    {
        if (n > capacity_)
            setCapacity(n);
    }

    /** Give back the room past size() (in place: realloc shrinks). */
    void
    shrinkToFit()
    {
        if (capacity_ > size_)
            setCapacity(size_);
    }

  private:
    void
    setCapacity(size_t n)
    {
        if (n == 0) {
            std::free(data_);
            data_ = nullptr;
        } else {
            void *grown = std::realloc(data_, n * sizeof(T));
            if (!grown)
                throw std::bad_alloc();
            data_ = static_cast<T *>(grown);
        }
        capacity_ = n;
    }

    T *data_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
};

/**
 * A renderable scene. Primitive id p resolves to triangles[p] when
 * p < triangleCount(), otherwise to spheres[p - triangleCount()].
 */
class Scene
{
  public:
    std::string name;
    CameraDesc camera;
    LightDesc light;

    uint32_t triangleCount() const { return (uint32_t)triangles_.size(); }
    uint32_t sphereCount() const { return (uint32_t)spheres_.size(); }

    uint32_t
    primitiveCount() const
    {
        return triangleCount() + sphereCount();
    }

    const PodArray<Triangle> &triangles() const { return triangles_; }
    const PodArray<Sphere> &spheres() const { return spheres_; }
    const std::vector<Material> &materials() const { return materials_; }
    /** Material id of each triangle, then of each sphere. */
    const PodArray<uint16_t> &
    triangleMaterials() const
    {
        return triangle_materials_;
    }
    const PodArray<uint16_t> &
    sphereMaterials() const
    {
        return sphere_materials_;
    }

    /**
     * Room for @p primitives primitives of either kind, so a generator
     * that emits at most that many never regrows an array. The room
     * nothing fills is address space only until shrinkToFit().
     */
    void reserve(uint32_t primitives);

    /** Give back the primitive arrays' room past their sizes. */
    void shrinkToFit();

    /** Register a material, returning its id. */
    uint16_t addMaterial(const Material &m);

    /** Append a triangle with the given material id. */
    void addTriangle(const Triangle &t, uint16_t material);

    /** Append a sphere with the given material id. */
    void addSphere(const Sphere &s, uint16_t material);

    /** Kind of the unified primitive id. */
    PrimitiveKind
    primitiveKind(uint32_t id) const
    {
        return id < triangleCount() ? PrimitiveKind::Triangle
                                    : PrimitiveKind::Sphere;
    }

    /** Bounding box of the unified primitive id. */
    Aabb primitiveBounds(uint32_t id) const;

    /** Centroid of the unified primitive id. */
    Vec3 primitiveCentroid(uint32_t id) const;

    /** Material of the unified primitive id. */
    const Material &primitiveMaterial(uint32_t id) const;

    /** Material id of the unified primitive id. */
    uint16_t
    primitiveMaterialId(uint32_t id) const
    {
        return id < triangleCount()
                   ? triangle_materials_[id]
                   : sphere_materials_[id - triangleCount()];
    }

    /**
     * Intersect one primitive, updating @p hit and shrinking @p ray.tMax
     * on success.
     *
     * @return true when the primitive is hit within the ray segment
     */
    bool intersectPrimitive(uint32_t id, Ray &ray, HitRecord &hit) const;

    /** Bounding box of all primitives. */
    Aabb bounds() const;

    /**
     * Closest hit by brute force over all primitives. O(n) — reference
     * oracle for BVH traversal tests, never used by the simulator.
     */
    HitRecord intersectBruteForce(const Ray &ray) const;

    /** Total bytes of primitive data as laid out in simulated memory. */
    uint64_t primitiveDataBytes() const;

  private:
    PodArray<Triangle> triangles_;
    PodArray<Sphere> spheres_;
    PodArray<uint16_t> triangle_materials_;
    PodArray<uint16_t> sphere_materials_;
    std::vector<Material> materials_;
};

} // namespace sms

#endif // SMS_SCENE_SCENE_HPP
