package repro.data

import repro.core.Field

/** Synthetic stand-ins for the paper's Table I datasets (SDRBench).
  *
  * The real datasets (up to 682 GB) are not available offline, so each field
  * is generated deterministically with the *character* that drives the
  * ratio-quality model for its real counterpart: smooth climate fields,
  * vortex + turbulence weather, high-dynamic-range clustered cosmology
  * density, hard-to-compress particle data, Brownian 1-D noise, oscillatory
  * orbitals, sparse detector images, expanding seismic wavefronts. Dims are
  * laptop-scale but keep each dataset's dimensionality (1-D … 4-D).
  * See DESIGN.md for the substitution rationale.
  */
final case class SciField(
    dataset: String,
    fieldName: String,
    description: String,
    benchDims: Array[Int],
    testDims: Array[Int],
    seed: Long,
    gen: (Array[Int], Long) => Field,
) {
  def generate(test: Boolean = false): Field = gen(if (test) testDims else benchDims, seed)
  def id: String = s"$dataset/$fieldName"
}

object SciData {

  // ---------------------------------------------------------------- helpers

  /** White noise blurred by `passes` separable box filters (radius 2) along
    * every dimension — smooth correlated noise, the texture of simulation
    * output.
    */
  def smoothNoise(dims: Array[Int], seed: Long, passes: Int, amp: Double): Field = {
    val rnd = new java.util.Random(seed)
    val n = dims.product
    val cur = Array.fill(n)(rnd.nextGaussian())
    val strides = Field.strides(dims)
    val tmp = new Array[Double](n)
    val origin = new Array[Int](dims.length)
    val unit = Array.fill(dims.length)(1)
    var p = 0
    while (p < passes) {
      var d = 0
      while (d < dims.length) {
        // moving average radius 2 along dim d, one line from each point of
        // the box of line starts: the field with its extent along d set to 1
        val len = dims(d)
        val stride = strides(d)
        val lineStarts = dims.clone()
        lineStarts(d) = 1
        Field.foreachRow(strides, origin, lineStarts, unit) { (first, count, _) =>
          var lineStart = first
          while (lineStart < first + count) {
            var i = 0
            while (i < len) {
              var s = 0.0; var c = 0
              var k = math.max(0, i - 2)
              val kEnd = math.min(len - 1, i + 2)
              while (k <= kEnd) { s += cur(lineStart + k * stride); c += 1; k += 1 }
              tmp(lineStart + i * stride) = s / c
              i += 1
            }
            lineStart += 1
          }
        }
        System.arraycopy(tmp, 0, cur, 0, n)
        d += 1
      }
      p += 1
    }
    var i = 0
    while (i < n) { cur(i) *= amp; i += 1 }
    Field(cur, dims)
  }

  private def tabulate(dims: Array[Int])(f: Array[Int] => Double): Field = {
    val fld = Field(new Array[Double](dims.product), dims)
    val last = dims.length - 1
    val coords = new Array[Int](dims.length)
    Field.foreachRow(fld.strides, new Array[Int](dims.length), dims, Array.fill(dims.length)(1)) { (start, len, row) =>
      System.arraycopy(row, 0, coords, 0, last)
      var j = 0
      while (j < len) { coords(last) = j; fld.data(start + j) = f(coords); j += 1 }
    }
    fld
  }

  private def addInPlace(a: Field, b: Field, w: Double = 1.0): Field = {
    var i = 0
    while (i < a.size) { a.data(i) += w * b.data(i); i += 1 }
    a
  }

  // ------------------------------------------------------------- generators

  /** CESM-like 2-D climate field: latitudinal gradient + planetary waves +
    * correlated noise.
    */
  def climate2d(dims: Array[Int], seed: Long): Field = {
    val Array(nlat, nlon) = dims
    val base = tabulate(dims) { c =>
      val lat = c(0).toDouble / nlat
      val lon = c(1).toDouble / nlon
      285.0 - 60.0 * math.pow(2 * lat - 1, 2) +
        8.0 * math.sin(2 * math.Pi * (3 * lon + lat)) +
        5.0 * math.cos(2 * math.Pi * (5 * lon - 2 * lat))
    }
    addInPlace(base, smoothNoise(dims, seed, passes = 3, amp = 2.0))
  }

  /** CESM TROP_Z-like: smoother, larger magnitude, different wave content. */
  def tropopause2d(dims: Array[Int], seed: Long): Field = {
    val Array(nlat, nlon) = dims
    val base = tabulate(dims) { c =>
      val lat = c(0).toDouble / nlat
      val lon = c(1).toDouble / nlon
      12000.0 + 4000.0 * math.cos(math.Pi * (2 * lat - 1)) +
        600.0 * math.sin(2 * math.Pi * (2 * lon + 3 * lat))
    }
    addInPlace(base, smoothNoise(dims, seed, passes = 4, amp = 150.0))
  }

  /** Hurricane-like 3-D wind component: a vertical-axis vortex + turbulence. */
  def vortex3d(dims: Array[Int], seed: Long): Field = {
    val Array(nz, ny, nx) = dims
    val cy = ny / 2.0; val cx = nx / 2.0
    val base = tabulate(dims) { c =>
      val z = c(0).toDouble / nz
      val dy = c(1) - cy; val dx = c(2) - cx
      val r = math.sqrt(dx * dx + dy * dy) + 1e-9
      val rm = 0.15 * math.min(nx, ny) // radius of max wind
      val v = 40.0 * (r / rm) * math.exp(1 - r / rm) * (1.0 - 0.5 * z)
      -v * dy / r
    }
    addInPlace(base, smoothNoise(dims, seed, passes = 2, amp = 3.0))
  }

  /** Hurricane TC-like temperature: warm core + vertical lapse + noise. */
  def stormTemp3d(dims: Array[Int], seed: Long): Field = {
    val Array(nz, ny, nx) = dims
    val cy = ny / 2.0; val cx = nx / 2.0
    val base = tabulate(dims) { c =>
      val z = c(0).toDouble / nz
      val dy = c(1) - cy; val dx = c(2) - cx
      val r2 = (dx * dx + dy * dy) / (0.1 * nx * ny)
      25.0 - 70.0 * z + 8.0 * math.exp(-r2) * (1 - z)
    }
    addInPlace(base, smoothNoise(dims, seed, passes = 3, amp = 1.0))
  }

  /** Nyx-like dark-matter density: lognormal of a smooth Gaussian field —
    * clustered, positive, many orders of magnitude of dynamic range.
    */
  def cosmoDensity3d(dims: Array[Int], seed: Long): Field = {
    val g = smoothNoise(dims, seed, passes = 3, amp = 1.0)
    val sigma = math.sqrt(g.variance)
    var i = 0
    while (i < g.size) { g.data(i) = 1e9 * math.exp(2.2 * g.data(i) / sigma); i += 1 }
    Field(g.data, g.dims) // g holds the statistics of the values before the rewrite
  }

  /** Nyx-like temperature: positive smooth field with hot filaments. */
  def cosmoTemp3d(dims: Array[Int], seed: Long): Field = {
    val g = smoothNoise(dims, seed, passes = 3, amp = 1.0)
    val sigma = math.sqrt(g.variance)
    var i = 0
    while (i < g.size) { g.data(i) = 1e4 * (1.0 + math.exp(1.2 * g.data(i) / sigma)); i += 1 }
    Field(g.data, g.dims) // g holds the statistics of the values before the rewrite
  }

  /** Nyx-like velocity component: large-scale smooth flows. */
  def cosmoVelocity3d(dims: Array[Int], seed: Long): Field =
    smoothNoise(dims, seed, passes = 5, amp = 2.5e7)

  /** HACC-like particle positions: cell-ordered positions with jitter — a
    * noisy ramp, moderately compressible with 1-D Lorenzo.
    */
  def particlePositions1d(dims: Array[Int], seed: Long): Field = {
    val n = dims(0)
    val rnd = new java.util.Random(seed)
    val box = 256.0
    val a = new Array[Double](n)
    var i = 0
    while (i < n) {
      a(i) = (i.toDouble / n) * box + rnd.nextGaussian() * 0.05
      i += 1
    }
    Field(a, dims)
  }

  /** HACC-like particle velocities: correlated 1-D noise. */
  def particleVelocities1d(dims: Array[Int], seed: Long): Field =
    smoothNoise(dims, seed, passes = 1, amp = 300.0)

  /** Brown: Brownian motion (integrated white noise) — SDRBench's synthetic
    * 1-D benchmark by construction.
    */
  def brownian1d(dims: Array[Int], seed: Long): Field = {
    val n = dims(0)
    val rnd = new java.util.Random(seed)
    val a = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += rnd.nextGaussian(); a(i) = acc; i += 1 }
    Field(a, dims)
  }

  /** Miranda-like turbulence component: superposition of random long-wave
    * modes — extremely smooth, very high compression ratios.
    */
  def turbulence3d(dims: Array[Int], seed: Long): Field = {
    val rnd = new java.util.Random(seed)
    val nModes = 24
    val ks = Array.fill(nModes, 3)(rnd.nextInt(5) + 1)
    val ph = Array.fill(nModes)(rnd.nextDouble() * 2 * math.Pi)
    val am = Array.fill(nModes)(rnd.nextGaussian())
    val base = tabulate(dims) { c =>
      var s = 0.0
      var m = 0
      while (m < nModes) {
        val arg = 2 * math.Pi * (ks(m)(0) * c(0).toDouble / dims(0) +
          ks(m)(1) * c(1).toDouble / dims(1) + ks(m)(2) * c(2).toDouble / dims(2)) + ph(m)
        s += am(m) * math.sin(arg)
        m += 1
      }
      s
    }
    addInPlace(base, smoothNoise(dims, seed + 7, passes = 5, amp = 0.02))
  }

  /** QMCPACK-like einspline orbital: decaying oscillatory product. */
  def orbital3d(dims: Array[Int], seed: Long): Field = {
    val base = tabulate(dims) { c =>
      val x = c(0).toDouble / dims(0)
      val y = c(1).toDouble / dims(1)
      val z = c(2).toDouble / dims(2)
      math.sin(6 * math.Pi * x) * math.sin(8 * math.Pi * y) * math.sin(10 * math.Pi * z) *
        math.exp(-2.0 * ((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) + (z - 0.5) * (z - 0.5)))
    }
    addInPlace(base, smoothNoise(dims, seed, passes = 4, amp = 0.002))
  }

  /** SCALE-LETKF-like pressure: exponential vertical profile + weather. */
  def pressure3d(dims: Array[Int], seed: Long): Field = {
    val base = tabulate(dims) { c =>
      val z = c(0).toDouble / dims(0)
      val y = c(1).toDouble / dims(1)
      val x = c(2).toDouble / dims(2)
      101325.0 * math.exp(-3.0 * z) + 400.0 * math.sin(2 * math.Pi * (2 * x + y))
    }
    addInPlace(base, smoothNoise(dims, seed, passes = 3, amp = 120.0))
  }

  /** EXAFEL-like 4-D detector stack: flat background + shot noise + sparse
    * bright peaks; values are integer counts (spiky, sparse — the model's
    * sparse-data branch).
    */
  def detector4d(dims: Array[Int], seed: Long): Field = {
    val rnd = new java.util.Random(seed)
    val f = tabulate(dims) { _ => math.max(0.0, math.rint(30.0 + rnd.nextGaussian() * 3.0)) }
    // sparse Bragg-like peaks: 0.1% of pixels get a bright Gaussian splash
    val n = f.size
    val nPeaks = math.max(1, n / 1000)
    val Array(_, _, ny, nx) = dims
    var p = 0
    while (p < nPeaks) {
      val idx = rnd.nextInt(n)
      val amp = 500.0 + rnd.nextDouble() * 8000.0
      f.data(idx) = math.rint(f.data(idx) + amp)
      // small cross-shaped halo in the fastest 2 dims
      val x = idx % nx
      val y = idx / nx % ny
      var dd = -1
      while (dd <= 1) {
        if (dd != 0) {
          if (x + dd >= 0 && x + dd < nx) {
            val j = idx + dd
            f.data(j) = math.rint(f.data(j) + amp / 4)
          }
          if (y + dd >= 0 && y + dd < ny) {
            val j = idx + dd * nx
            f.data(j) = math.rint(f.data(j) + amp / 4)
          }
        }
        dd += 2
      }
      p += 1
    }
    f
  }

  /** RTM-like snapshot: expanding spherical wavefronts with ringing from a
    * few sources; `t` scales the radius (paper fields 1000/2000/3000 are
    * successive timesteps).
    */
  def rtmSnapshot3d(t: Double)(dims: Array[Int], seed: Long): Field = {
    val rnd = new java.util.Random(seed)
    val nSrc = 3
    val srcs = Array.fill(nSrc)(Array(rnd.nextDouble(), rnd.nextDouble(), rnd.nextDouble()))
    val base = tabulate(dims) { c =>
      val z = c(0).toDouble / dims(0)
      val y = c(1).toDouble / dims(1)
      val x = c(2).toDouble / dims(2)
      var s = 0.0
      var k = 0
      while (k < nSrc) {
        val dz = z - srcs(k)(0); val dy = y - srcs(k)(1); val dx = x - srcs(k)(2)
        val r = math.sqrt(dx * dx + dy * dy + dz * dz)
        val rt = 0.18 * t / 1000.0
        val shell = math.exp(-math.pow((r - rt) / 0.05, 2))
        s += shell * math.cos(60.0 * (r - rt)) / (1.0 + 4.0 * r)
        k += 1
      }
      s
    }
    addInPlace(base, smoothNoise(dims, seed + 13, passes = 4, amp = 0.003))
  }

  // --------------------------------------------------------------- registry

  /** The 17 fields of Table II (10 datasets of Table I). */
  val fields: Seq[SciField] = Seq(
    SciField("RTM", "1000", "Reverse time migration snapshot t=1000", Array(48, 96, 96), Array(24, 32, 32), 101, rtmSnapshot3d(1000.0)),
    SciField("RTM", "2000", "Reverse time migration snapshot t=2000", Array(48, 96, 96), Array(24, 32, 32), 101, rtmSnapshot3d(2000.0)),
    SciField("RTM", "3000", "Reverse time migration snapshot t=3000", Array(48, 96, 96), Array(24, 32, 32), 101, rtmSnapshot3d(3000.0)),
    SciField("CESM", "TS", "Climate simulation surface temperature", Array(450, 900), Array(90, 180), 202, climate2d),
    SciField("CESM", "TROP_Z", "Climate simulation tropopause height", Array(450, 900), Array(90, 180), 203, tropopause2d),
    SciField("Hurricane", "U", "Weather simulation wind component", Array(25, 125, 125), Array(13, 50, 50), 301, vortex3d),
    SciField("Hurricane", "TC", "Weather simulation temperature", Array(25, 125, 125), Array(13, 50, 50), 302, stormTemp3d),
    SciField("Nyx", "dark_matter_density", "Cosmology dark matter density", Array(64, 64, 64), Array(32, 32, 32), 401, cosmoDensity3d),
    SciField("Nyx", "temperature", "Cosmology baryon temperature", Array(64, 64, 64), Array(32, 32, 32), 402, cosmoTemp3d),
    SciField("Nyx", "velocity_z", "Cosmology z-velocity", Array(64, 64, 64), Array(32, 32, 32), 403, cosmoVelocity3d),
    SciField("HACC", "xx", "Cosmology particle x positions", Array(400000), Array(40000), 501, particlePositions1d),
    SciField("HACC", "vx", "Cosmology particle x velocities", Array(400000), Array(40000), 502, particleVelocities1d),
    SciField("Brown", "pressure", "Synthetic Brownian data", Array(262144), Array(32768), 601, brownian1d),
    SciField("Miranda", "vx", "Turbulence simulation x-velocity", Array(48, 96, 96), Array(24, 32, 32), 701, turbulence3d),
    SciField("QMCPACK", "einspline", "Electronic structure orbital", Array(35, 35, 58), Array(18, 18, 29), 801, orbital3d),
    SciField("SCALE", "PRES", "Climate simulation pressure", Array(13, 150, 150), Array(7, 60, 60), 901, pressure3d),
    SciField("EXAFEL", "raw", "LCLS instrument images", Array(3, 8, 93, 97), Array(2, 4, 47, 49), 1001, detector4d),
  )

  def byId(dataset: String, fieldName: String): SciField =
    fields.find(f => f.dataset == dataset && f.fieldName == fieldName)
      .getOrElse(throw new IllegalArgumentException(s"unknown field $dataset/$fieldName"))
}
