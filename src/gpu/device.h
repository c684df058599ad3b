// The simulated graphics device: texture objects, a framebuffer, render
// state, host<->device transfers with bus-byte accounting, and cumulative
// work counters.
//
// This class is the substitution for the paper's NVIDIA GeForce FX 6800
// Ultra + OpenGL stack. It executes exactly the operations the paper's
// routines issue (texture upload, Copy, blended quads, framebuffer-to-texture
// copies, readback) and records how much of each a physical device would have
// performed; src/hwmodel converts the counters to simulated milliseconds.

#ifndef STREAMGPU_GPU_DEVICE_H_
#define STREAMGPU_GPU_DEVICE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gpu/blend.h"
#include "gpu/depth.h"
#include "gpu/fault_hook.h"
#include "gpu/rasterizer.h"
#include "gpu/stats.h"
#include "gpu/surface.h"
#include "gpu/vertex.h"

namespace streamgpu::gpu {

/// Opaque texture object handle.
using TextureHandle = int;

/// One stage of a sorting network, recorded once and replayed by
/// GpuDevice::ReplayStage. PBSN is periodic: each of its log M stages issues
/// the same log M steps (§4), and a step's quads depend only on the texture
/// shape. Recording proves that each step, a run of draws followed by a
/// framebuffer-to-texture copy, is the mirror compare-exchange of one
/// power-of-two block size b over the texels in row-major order: the pixel
/// at linear index i fetches texel i - i mod b + b - 1 - i mod b, MIN blends
/// the block's lower half and MAX its upper half, and the step's draws cover
/// every pixel once. The program keeps each step's b and the stage's draw
/// count, no draw.
class StageProgram {
 public:
  /// Empties the program and starts recording a stage of `draws` draws for
  /// a width x height texture drawn into a framebuffer of the same shape. A
  /// stage of no draws or of more draws than texels, or a shape whose sides
  /// are not powers of two, is not recorded: the program stays
  /// unreplayable.
  void Reset(int width, int height, std::size_t draws);

  /// Records one draw of the current step: `quad` is set up against the
  /// program's shape by Rasterizer::SetUp. A draw past the declared count,
  /// one whose pixels do not all fetch their mirror texel through a
  /// closed-form unit-step mapping, blend MIN on a block's lower half or MAX
  /// on its upper half, or one that covers a pixel an earlier draw of the
  /// step covered, abandons the program: it stays unreplayable until the
  /// next Reset. All draws of a step must mirror the same block size.
  void Add(const Quad& quad, BlendOp op);

  /// Closes the current step. A step whose draws leave a pixel uncovered
  /// abandons the program.
  void EndStep();

  /// True when exactly the declared draws were recorded, in closed steps.
  bool replayable() const {
    return replayable_ && draws_ == declared_ && step_area_ == 0;
  }

  int width() const { return width_; }
  int height() const { return height_; }

  /// The block size b of each recorded step, in drawing order.
  std::span<const std::uint64_t> steps() const { return steps_; }

  /// Draws recorded: the draw calls the stage's steps issue.
  std::uint64_t draws() const { return draws_; }

  /// The blend equation of the stage's last draw.
  BlendOp last_op() const { return last_op_; }

 private:
  /// True when every pixel of the draw `s` blends as the open step's mirror
  /// compare-exchange does (the first draw of a step fixes its block size).
  bool ProveMirrorDraw(const QuadSetup& s, BlendOp op);

  /// Marks the draw's pixels covered; false when one already was.
  bool Cover(const QuadSetup& s);

  void Abandon();

  std::vector<std::uint64_t> steps_;
  // Pixels covered by the open step's draws, one byte each; held only while
  // recording.
  std::vector<std::uint8_t> covered_;
  std::uint64_t declared_ = 0;
  std::uint64_t draws_ = 0;
  std::uint64_t step_block_ = 0;  // b of the open step; 0 before its first draw
  std::uint64_t step_area_ = 0;   // pixels the open step's draws cover
  int width_ = 0;
  int height_ = 0;
  BlendOp last_op_ = BlendOp::kReplace;
  bool replayable_ = false;
};

/// A simulated GPU with video memory, a rasterizer, and a bus to the host.
class GpuDevice {
 public:
  GpuDevice() = default;

  // Not copyable (owns device memory); movable.
  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;
  GpuDevice(GpuDevice&&) = default;
  GpuDevice& operator=(GpuDevice&&) = default;

  /// Allocates a width x height RGBA texture and returns its handle. Storage
  /// comes from the device's texture arena: surfaces retired by
  /// DestroyAllTextures() are recycled, so steady-state sort loops that
  /// create same-sized textures every window never touch the heap.
  TextureHandle CreateTexture(int width, int height, Format format);

  /// Retires all textures into the arena (handles become invalid; the
  /// storage is reused by subsequent CreateTexture calls).
  void DestroyAllTextures();

  /// Uploads one channel of a texture from host memory over the bus. `data`
  /// is row-major and must contain exactly width*height values. Bus bytes
  /// are charged at the texture's storage precision.
  void UploadChannel(TextureHandle tex, int channel, std::span<const float> data);

  /// Reads one framebuffer channel back to host memory over the bus.
  void ReadbackChannel(int channel, std::span<float> out);

  /// Binds the framebuffer, resizing in place (the allocation is reused
  /// across binds). Contents are undefined (zeroed in the simulator).
  void BindFramebuffer(int width, int height, Format format);

  /// Sets the blend equation for subsequent DrawQuad calls. kReplace models
  /// glDisable(GL_BLEND).
  void SetBlend(BlendOp op) { blend_op_ = op; }

  /// Rasterizes a textured quad into the framebuffer with the current blend
  /// equation (the paper's DrawQuad(v, t)).
  void DrawQuad(TextureHandle tex, const Quad& quad);

  /// Copies the framebuffer contents into a texture of identical dimensions
  /// (glCopyTexSubImage2D). Pure video-memory traffic; no bus transfer.
  ///
  /// Implementation note: when the formats match, the device executes the
  /// copy as a storage swap and remembers that the framebuffer's logical
  /// content now lives in `tex` (ping-pong aliasing). Subsequent draws read
  /// their pre-blend destination values from `tex` and write the framebuffer;
  /// once the draws since the swap tile the framebuffer (every PBSN/bitonic
  /// step does), the next copy is again a pure swap, so the render loop's
  /// per-step copy costs nothing. Draws that overlap an already-written
  /// region, partial coverage, and direct framebuffer reads materialize the
  /// logical content first, so observable behavior — outputs, stats, and the
  /// values seen by Texture()/framebuffer()/ReadbackChannel() — is identical
  /// to a physical copy.
  void CopyFramebufferToTexture(TextureHandle tex);

  /// Replays a recorded stage against texture `tex`, which the bound
  /// framebuffer renders, as an in-place compare-exchange network on the
  /// texture's own storage: each run of up to four steps b, b/2, ... is one
  /// pass over closed groups of up to 16 texels. The first step's pre-blend
  /// values come from the physical framebuffer when nothing is aliased (the
  /// stage after the Copy pass), as they do for its draws. The stage's
  /// GpuStats are charged in bulk, and the framebuffer ends aliased to `tex`
  /// with nothing written, the state the copies' storage swaps leave.
  /// Surfaces, counters and the blend state end as the stage's
  /// SetBlend/DrawQuad/copy sequence leaves them.
  /// Returns false, with no side effect, when a fault hook is installed
  /// (every draw would poll it) or the device is lost; when the raster path
  /// is not kFast; when the framebuffer aliases another texture or was drawn
  /// since its last copy; when `tex` and the framebuffer differ in format; or
  /// when `program` is not replayable. The caller then issues the stage's
  /// draws itself.
  bool ReplayStage(TextureHandle tex, const StageProgram& program);

  /// Runs a user fragment program over a framebuffer rectangle (see
  /// Rasterizer::RunFragmentProgram). Used by the bitonic-sort baseline.
  template <typename Program>
  void RunFragmentProgram(TextureHandle tex, int x0, int y0, int x1, int y1,
                          std::uint64_t instructions_per_fragment,
                          std::uint64_t fetches_per_fragment, Program&& program) {
    const DeviceFault fault =
        PollFault(DeviceFaultSite::kPass, static_cast<std::uint64_t>(x1 - x0) *
                                              static_cast<std::uint64_t>(y1 - y0));
    if (lost_) return;
    NoteFramebufferWrite(x0, y0, x1, y1);
    Rasterizer::RunFragmentProgram(Texture(tex), x0, y0, x1, y1, instructions_per_fragment,
                                   fetches_per_fragment, std::forward<Program>(program),
                                   &framebuffer_, &stats_);
    if (fault.kind != DeviceFault::Kind::kNone) ApplyFramebufferCorruption(fault);
  }

  // --- Fault injection and recovery (docs/ROBUSTNESS.md). ---

  /// Installs a fault hook polled at every upload / render-pass / readback
  /// operation (null, the default, disables injection; each poll then costs
  /// one pointer compare). Borrowed; must outlive the device or be unset.
  void set_fault_hook(DeviceFaultHook* hook) { fault_hook_ = hook; }

  /// True while the simulated device is lost: data operations (uploads,
  /// draws, fragment programs, copies, readbacks) are dropped — no work, no
  /// stats — until Recover(). Host-side state ops (CreateTexture,
  /// BindFramebuffer, DestroyAllTextures) still execute, so dimension
  /// invariants hold across the outage.
  bool lost() const { return lost_; }

  /// Clears the lost state (the host "reset the context and retry" path).
  void Recover() { lost_ = false; }

  // --- Depth-test path (the database-predicate machinery of [20], §2.2). ---

  /// Binds a depth buffer (storage reused across binds), cleared to
  /// `clear_value`.
  void BindDepthBuffer(int width, int height, float clear_value = 1.0f);

  /// Loads one texture channel into the depth buffer: a render pass in which
  /// each fragment's depth is the corresponding texel value (depth writes
  /// on, depth func ALWAYS). Dimensions must match the depth buffer.
  void LoadDepthFromTexture(TextureHandle tex, int channel);

  /// Loads one framebuffer channel into the depth buffer (a depth-replace
  /// pass over a previously rendered result — how computed attributes such
  /// as linear combinations reach the depth-test path, [20]).
  void LoadDepthFromFramebuffer(int channel);

  /// Sets the depth comparison and whether passing fragments update the
  /// stored depth.
  void SetDepthTest(DepthFunc func, bool write_depth);

  /// Starts counting fragments that pass the depth test.
  void BeginOcclusionQuery();

  /// Stops counting and returns the number of passing fragments (a
  /// pipeline-stalling readback on real hardware; charged per query by the
  /// timing model).
  std::uint64_t EndOcclusionQuery();

  // --- Stencil path (boolean predicate combinations, [20]). ---

  /// Stencil comparison for subsequent depth-only quads.
  enum class StencilFunc { kAlways, kEqual };

  /// Stencil update applied to fragments that pass BOTH the stencil and the
  /// depth test (a subset of GL's op table sufficient for multi-pass
  /// conjunction counting).
  enum class StencilOp { kKeep, kIncrement, kZero };

  /// Binds an 8-bit stencil buffer (storage reused across binds) cleared to
  /// `clear_value`. Dimensions must match the depth buffer when both are
  /// used.
  void BindStencilBuffer(int width, int height, std::uint8_t clear_value = 0);

  /// Enables/disables the stencil test for depth-only quads.
  void SetStencilTest(bool enabled, StencilFunc func = StencilFunc::kAlways,
                      std::uint8_t reference = 0, StencilOp on_pass = StencilOp::kKeep);

  /// Stored stencil value at a pixel (host-side inspection in tests).
  std::uint8_t StencilAt(int x, int y) const;

  /// Renders a depth-only screen-aligned quad at constant `depth` covering
  /// pixel rectangle [x0, x1) x [y0, y1); no color output. When the stencil
  /// test is enabled, fragments failing it are discarded before the depth
  /// test, and `on_pass` updates the stencil of fully passing fragments.
  void DrawDepthOnlyQuad(float x0, float y0, float x1, float y1, float depth);

  /// Stored depth at a pixel (host-side inspection in tests).
  float DepthAt(int x, int y) const;

  /// Direct access to a texture object (host-side inspection in tests).
  const Surface& Texture(TextureHandle tex) const;
  Surface& MutableTexture(TextureHandle tex);

  /// Direct access to the framebuffer's logical contents (host-side
  /// inspection in tests). Materializes any pending ping-pong alias first.
  const Surface& framebuffer() const {
    return const_cast<GpuDevice*>(this)->ReadableFramebuffer();
  }

  /// Cumulative work counters since construction or the last ResetStats().
  const GpuStats& stats() const { return stats_; }
  void ResetStats() { stats_ = GpuStats{}; }

 private:
  /// Polls the fault hook at the start of a data operation: applies stall
  /// faults inline, latches kDeviceLost into lost_, and returns any
  /// corruption fault for the caller to apply to its operand after the op.
  /// Returns kNone when no hook is installed or the device is already lost.
  /// The no-hook fast path is inline so the disabled configuration pays one
  /// pointer compare per op (the fig3 overhead budget).
  DeviceFault PollFault(DeviceFaultSite site, std::uint64_t elements) {
    if (fault_hook_ == nullptr) return DeviceFault{};
    return PollFaultSlow(site, elements);
  }
  DeviceFault PollFaultSlow(DeviceFaultSite site, std::uint64_t elements);

  /// Applies a corruption fault to one value of the framebuffer's logical
  /// contents (render-pass fault site).
  void ApplyFramebufferCorruption(const DeviceFault& fault);

  // --- Ping-pong framebuffer aliasing (see CopyFramebufferToTexture). ---

  /// Records an upcoming write to framebuffer pixels [x0, x1) x [y0, y1).
  /// While an alias is active, an overlap with an already-written rectangle
  /// forces materialization (the overlapped texels' pre-blend values live in
  /// the framebuffer itself, not the aliased texture).
  void NoteFramebufferWrite(int x0, int y0, int x1, int y1);

  /// Restores the framebuffer's physical storage to its logical contents and
  /// deactivates the alias. No-op when no alias is active.
  void MaterializeFramebuffer();

  /// The surface holding the framebuffer's logical contents: the aliased
  /// texture when untouched since the swap, otherwise the (materialized)
  /// framebuffer.
  Surface& ReadableFramebuffer();

  std::vector<std::unique_ptr<Surface>> textures_;
  // Retired texture storage, recycled by CreateTexture (Surface::Reset reuses
  // the underlying block when its capacity suffices).
  std::vector<std::unique_ptr<Surface>> texture_arena_;
  Surface framebuffer_;
  BlendOp blend_op_ = BlendOp::kReplace;

  // Active ping-pong alias: the texture whose storage holds the framebuffer's
  // logical content (-1 when none), the disjoint pixel rectangles
  // {x0, y0, x1, y1} written since the swap, their bounding box (meaningful
  // while fb_written_ is non-empty) and their total area.
  TextureHandle fb_alias_ = -1;
  std::vector<std::array<int, 4>> fb_written_;
  std::array<int, 4> fb_written_bounds_{};
  std::uint64_t fb_written_area_ = 0;
  // Scratch coverage mask for partial materialization (cold path).
  std::vector<std::uint8_t> fb_mask_;

  std::vector<float> depth_buffer_;
  int depth_width_ = 0;
  int depth_height_ = 0;
  DepthFunc depth_func_ = DepthFunc::kAlways;
  bool depth_write_ = true;
  bool occlusion_active_ = false;
  std::uint64_t occlusion_passed_ = 0;

  std::vector<std::uint8_t> stencil_buffer_;
  int stencil_width_ = 0;
  int stencil_height_ = 0;
  bool stencil_enabled_ = false;
  StencilFunc stencil_func_ = StencilFunc::kAlways;
  std::uint8_t stencil_ref_ = 0;
  StencilOp stencil_on_pass_ = StencilOp::kKeep;

  GpuStats stats_;

  DeviceFaultHook* fault_hook_ = nullptr;
  bool lost_ = false;
};

}  // namespace streamgpu::gpu

#endif  // STREAMGPU_GPU_DEVICE_H_
