//! Sequential network layers and their exact backward passes.
//!
//! Layers are a closed enum rather than a trait object so that a whole
//! [`crate::Network`] derives `Serialize`/`Deserialize` and models can be
//! cached on disk between experiment runs.

use dcn_tensor::{
    col2im, im2col, im2col_into, matmul_into, matmul_nt, matmul_tn, scratch, Conv2dGeometry,
    Tensor,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{NnError, Result};

/// `x.map(f)` written into a scratch buffer — the inference-path twin of
/// [`Tensor::map`] used by the activation layers. Bitwise identical to the
/// training path because it applies the very same closure element by element.
fn map_into(x: &Tensor, f: impl Fn(f32) -> f32) -> Result<Tensor> {
    let mut out = scratch::take(x.len());
    for (o, &v) in out.iter_mut().zip(x.data()) {
        *o = f(v);
    }
    Ok(Tensor::from_vec(x.shape().to_vec(), out)?)
}

/// Per-layer activation cache produced by a training-mode forward pass and
/// consumed by the matching backward pass.
///
/// Callers never construct caches themselves; they come out of
/// [`crate::Network::forward_train`].
#[derive(Debug, Clone)]
pub enum LayerCache {
    /// Dense layer: the layer input, flattened to `[N, In]`.
    Dense {
        /// Input activations.
        input: Tensor,
    },
    /// Conv layer: the `im2col` patch matrix and the batch size.
    Conv2d {
        /// Patch matrix `[N·OH·OW, C·KH·KW]`.
        cols: Tensor,
        /// Batch size of the forward pass.
        batch: usize,
    },
    /// ReLU: which inputs were positive.
    Relu {
        /// 1.0 where the input was `> 0`, else 0.0.
        mask: Tensor,
    },
    /// Sigmoid: the layer *output* (its derivative is `y·(1−y)`).
    Sigmoid {
        /// Output activations.
        output: Tensor,
    },
    /// Tanh: the layer *output* (its derivative is `1−y²`).
    Tanh {
        /// Output activations.
        output: Tensor,
    },
    /// Max pool: winning input offsets and the input shape.
    MaxPool2d {
        /// For each output element, the linear offset of the max input.
        argmax: Vec<usize>,
        /// Shape of the layer input.
        in_shape: Vec<usize>,
    },
    /// Flatten: the original input shape.
    Flatten {
        /// Shape of the layer input.
        in_shape: Vec<usize>,
    },
}

/// Gradients of a layer's parameters: `(weights, bias)` where applicable.
pub type ParamGrads = Option<(Tensor, Tensor)>;

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected affine layer: `y = x·W + b`.
///
/// Weights are stored `[In, Out]`, bias `[Out]`, initialized with the He
/// scheme (`N(0, 2/In)`), which suits the ReLU networks used throughout the
/// paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    w: Tensor,
    b: Tensor,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Result<Self> {
        if in_dim == 0 || out_dim == 0 {
            return Err(NnError::InvalidConfig(format!(
                "dense dims must be positive, got {in_dim}x{out_dim}"
            )));
        }
        let std = (2.0 / in_dim as f32).sqrt();
        Ok(Dense {
            w: Tensor::randn(&[in_dim, out_dim], 0.0, std, rng),
            b: Tensor::zeros(&[out_dim]),
        })
    }

    /// Creates a dense layer from explicit weights `[In, Out]` and bias
    /// `[Out]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the shapes are inconsistent.
    pub fn from_params(w: Tensor, b: Tensor) -> Result<Self> {
        if w.rank() != 2 || b.rank() != 1 || w.shape()[1] != b.shape()[0] {
            return Err(NnError::InvalidConfig(format!(
                "dense params must be [in,out] and [out], got {:?} and {:?}",
                w.shape(),
                b.shape()
            )));
        }
        Ok(Dense { w, b })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerCache)> {
        let y = self.affine(x)?;
        Ok((
            y,
            LayerCache::Dense { input: x.clone() },
        ))
    }

    fn affine(&self, x: &Tensor) -> Result<Tensor> {
        let mut y = x.matmul(&self.w)?;
        let (n, out) = (y.shape()[0], y.shape()[1]);
        let bd = self.b.data();
        let yd = y.data_mut();
        for i in 0..n {
            for j in 0..out {
                yd[i * out + j] += bd[j];
            }
        }
        Ok(y)
    }

    /// [`Dense::affine`] writing into a scratch buffer: same matmul kernel,
    /// same bias loop, zero allocations once the pool is warm.
    fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let rows = if x.rank() == 2 { x.shape()[0] } else { 0 };
        let mut y = scratch::take(rows * self.out_dim());
        let (n, out) = match matmul_into(x, &self.w, &mut y) {
            Ok(dims) => dims,
            Err(e) => {
                scratch::recycle(y);
                return Err(e.into());
            }
        };
        let bd = self.b.data();
        for i in 0..n {
            for j in 0..out {
                y[i * out + j] += bd[j];
            }
        }
        Ok(Tensor::from_vec(vec![n, out], y)?)
    }

    fn backward(&self, grad: &Tensor, cache: &LayerCache) -> Result<(Tensor, ParamGrads)> {
        let LayerCache::Dense { input } = cache else {
            return Err(NnError::LayerInput("dense backward with wrong cache".into()));
        };
        let dw = matmul_tn(input, grad)?;
        let out = grad.shape()[1];
        let mut db = vec![0.0f32; out];
        for row in grad.data().chunks_exact(out) {
            for (acc, &g) in db.iter_mut().zip(row) {
                *acc += g;
            }
        }
        let dx = matmul_nt(grad, &self.w)?;
        Ok((dx, Some((dw, Tensor::from_vec(vec![out], db)?))))
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution with a square kernel, lowered to `im2col` + matmul.
///
/// Weights are stored as `[C·KH·KW, OutC]`; bias `[OutC]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    w: Tensor,
    b: Tensor,
    geom: Conv2dGeometry,
    out_channels: usize,
}

impl Conv2d {
    /// Creates a convolution layer with He-initialized weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero `out_channels` and
    /// propagates invalid geometry.
    pub fn new<R: Rng + ?Sized>(
        geom: Conv2dGeometry,
        out_channels: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if out_channels == 0 {
            return Err(NnError::InvalidConfig("out_channels must be positive".into()));
        }
        let fan_in = geom.patch_len();
        let std = (2.0 / fan_in as f32).sqrt();
        Ok(Conv2d {
            w: Tensor::randn(&[fan_in, out_channels], 0.0, std, rng),
            b: Tensor::zeros(&[out_channels]),
            geom,
            out_channels,
        })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerCache)> {
        let batch = x.shape()[0];
        let cols = im2col(x, &self.geom)?;
        let y = self.apply_cols(&cols, batch)?;
        Ok((y, LayerCache::Conv2d { cols, batch }))
    }

    /// cols `[N·OH·OW, patch]` → output `[N, OutC, OH, OW]` with bias.
    fn apply_cols(&self, cols: &Tensor, batch: usize) -> Result<Tensor> {
        let y_cols = cols.matmul(&self.w)?; // [N·OH·OW, OutC]
        let (oh, ow, oc) = (self.geom.out_h(), self.geom.out_w(), self.out_channels);
        let hw = oh * ow;
        let mut out = vec![0.0f32; batch * oc * hw];
        let yd = y_cols.data();
        let bd = self.b.data();
        for img in 0..batch {
            for pos in 0..hw {
                let row = (img * hw + pos) * oc;
                for ch in 0..oc {
                    out[img * oc * hw + ch * hw + pos] = yd[row + ch] + bd[ch];
                }
            }
        }
        Ok(Tensor::from_vec(vec![batch, oc, oh, ow], out)?)
    }

    /// [`Conv2d::forward`] without the cache, with every intermediate — the
    /// patch matrix, the pre-bias GEMM output, and the relaid result —
    /// drawn from and recycled to the thread's scratch pool.
    fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let batch = x.shape().first().copied().unwrap_or(0);
        let (oh, ow, oc) = (self.geom.out_h(), self.geom.out_w(), self.out_channels);
        let hw = oh * ow;
        let patch = self.geom.patch_len();
        let mut cols = scratch::take(batch * hw * patch);
        let rows = match im2col_into(x, &self.geom, &mut cols) {
            Ok(rows) => rows,
            Err(e) => {
                scratch::recycle(cols);
                return Err(e.into());
            }
        };
        let cols = Tensor::from_vec(vec![rows, patch], cols)?;
        let mut ycols = scratch::take(rows * oc);
        let res = matmul_into(&cols, &self.w, &mut ycols);
        scratch::recycle(cols.into_vec());
        if let Err(e) = res {
            scratch::recycle(ycols);
            return Err(e.into());
        }
        // Same NCHW relayout + bias as `apply_cols`, writing into scratch.
        let mut out = scratch::take(batch * oc * hw);
        let bd = self.b.data();
        for img in 0..batch {
            for pos in 0..hw {
                let row = (img * hw + pos) * oc;
                for ch in 0..oc {
                    out[img * oc * hw + ch * hw + pos] = ycols[row + ch] + bd[ch];
                }
            }
        }
        scratch::recycle(ycols);
        Ok(Tensor::from_vec(vec![batch, oc, oh, ow], out)?)
    }

    fn backward(&self, grad: &Tensor, cache: &LayerCache) -> Result<(Tensor, ParamGrads)> {
        let LayerCache::Conv2d { cols, batch } = cache else {
            return Err(NnError::LayerInput("conv backward with wrong cache".into()));
        };
        let (oh, ow, oc) = (self.geom.out_h(), self.geom.out_w(), self.out_channels);
        let hw = oh * ow;
        // Re-layout grad [N, OutC, OH, OW] → grad_cols [N·OH·OW, OutC].
        let gd = grad.data();
        let mut gcols = vec![0.0f32; batch * hw * oc];
        for img in 0..*batch {
            for ch in 0..oc {
                for pos in 0..hw {
                    gcols[(img * hw + pos) * oc + ch] = gd[img * oc * hw + ch * hw + pos];
                }
            }
        }
        let gcols = Tensor::from_vec(vec![batch * hw, oc], gcols)?;
        let dw = matmul_tn(cols, &gcols)?;
        let mut db = vec![0.0f32; oc];
        for row in gcols.data().chunks_exact(oc) {
            for (acc, &g) in db.iter_mut().zip(row) {
                *acc += g;
            }
        }
        let dcols = matmul_nt(&gcols, &self.w)?;
        let dx = col2im(&dcols, *batch, &self.geom)?;
        Ok((dx, Some((dw, Tensor::from_vec(vec![oc], db)?))))
    }
}

// ---------------------------------------------------------------------------
// Relu
// ---------------------------------------------------------------------------

/// Elementwise rectified linear unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerCache)> {
        let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let y = x.map(|v| v.max(0.0));
        Ok((y, LayerCache::Relu { mask }))
    }

    fn backward(&self, grad: &Tensor, cache: &LayerCache) -> Result<(Tensor, ParamGrads)> {
        let LayerCache::Relu { mask } = cache else {
            return Err(NnError::LayerInput("relu backward with wrong cache".into()));
        };
        Ok((grad.mul(mask)?, None))
    }
}

// ---------------------------------------------------------------------------
// Sigmoid
// ---------------------------------------------------------------------------

/// Elementwise logistic sigmoid `σ(x) = 1/(1+e^{−x})`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Sigmoid;

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerCache)> {
        let y = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        Ok((y.clone(), LayerCache::Sigmoid { output: y }))
    }

    fn backward(&self, grad: &Tensor, cache: &LayerCache) -> Result<(Tensor, ParamGrads)> {
        let LayerCache::Sigmoid { output } = cache else {
            return Err(NnError::LayerInput("sigmoid backward with wrong cache".into()));
        };
        Ok((grad.zip(output, |g, y| g * y * (1.0 - y))?, None))
    }
}

// ---------------------------------------------------------------------------
// Tanh
// ---------------------------------------------------------------------------

/// Elementwise hyperbolic tangent — the natural output activation for
/// decoders reconstructing inputs in the workspace's `[-0.5, 0.5]` pixel box
/// (train against targets scaled by 2, or wrap with a 0.5 scale outside).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Tanh;

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerCache)> {
        let y = x.map(f32::tanh);
        Ok((y.clone(), LayerCache::Tanh { output: y }))
    }

    fn backward(&self, grad: &Tensor, cache: &LayerCache) -> Result<(Tensor, ParamGrads)> {
        let LayerCache::Tanh { output } = cache else {
            return Err(NnError::LayerInput("tanh backward with wrong cache".into()));
        };
        Ok((grad.zip(output, |g, y| g * (1.0 - y * y))?, None))
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// Non-overlapping max pooling with a square `k×k` window and stride `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxPool2d {
    k: usize,
}

impl MaxPool2d {
    /// Creates a `k×k` max-pool layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `k == 0`.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(NnError::InvalidConfig("pool kernel must be positive".into()));
        }
        Ok(MaxPool2d { k })
    }

    /// Window extent.
    pub fn kernel(&self) -> usize {
        self.k
    }

    fn dims(&self, x: &Tensor) -> Result<(usize, usize, usize, usize)> {
        if x.rank() != 4 {
            return Err(NnError::LayerInput(format!(
                "max-pool expects [N,C,H,W], got rank {}",
                x.rank()
            )));
        }
        let dims = x.shape();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        if h < self.k || w < self.k {
            return Err(NnError::LayerInput(format!(
                "pool window {} exceeds input {h}x{w}",
                self.k
            )));
        }
        Ok((n, c, h, w))
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerCache)> {
        let (n, c, h, w) = self.dims(x)?;
        let k = self.k;
        let (oh, ow) = (h / k, w / k);
        let xd = x.data();
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_off = 0;
                        for dy in 0..k {
                            for dx in 0..k {
                                let off = base + (oy * k + dy) * w + (ox * k + dx);
                                if xd[off] > best {
                                    best = xd[off];
                                    best_off = off;
                                }
                            }
                        }
                        let o = ((img * c + ch) * oh + oy) * ow + ox;
                        out[o] = best;
                        argmax[o] = best_off;
                    }
                }
            }
        }
        Ok((
            Tensor::from_vec(vec![n, c, oh, ow], out)?,
            LayerCache::MaxPool2d {
                argmax,
                in_shape: x.shape().to_vec(),
            },
        ))
    }

    /// [`MaxPool2d::forward`] without the argmax cache, writing the pooled
    /// maxima straight into a scratch buffer. The window scan keeps the
    /// strict `>` comparison order, so ties and NaN handling match the
    /// training path bit for bit.
    fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let (n, c, h, w) = self.dims(x)?;
        let k = self.k;
        let (oh, ow) = (h / k, w / k);
        let xd = x.data();
        let mut out = scratch::take(n * c * oh * ow);
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for dy in 0..k {
                            for dx in 0..k {
                                let off = base + (oy * k + dy) * w + (ox * k + dx);
                                if xd[off] > best {
                                    best = xd[off];
                                }
                            }
                        }
                        out[((img * c + ch) * oh + oy) * ow + ox] = best;
                    }
                }
            }
        }
        Ok(Tensor::from_vec(vec![n, c, oh, ow], out)?)
    }

    fn backward(&self, grad: &Tensor, cache: &LayerCache) -> Result<(Tensor, ParamGrads)> {
        let LayerCache::MaxPool2d { argmax, in_shape } = cache else {
            return Err(NnError::LayerInput("pool backward with wrong cache".into()));
        };
        let mut dx = Tensor::zeros(in_shape);
        let dxd = dx.data_mut();
        for (g, &src) in grad.data().iter().zip(argmax.iter()) {
            dxd[src] += g;
        }
        Ok((dx, None))
    }
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Flattens `[N, …]` to `[N, prod(…)]` ahead of dense layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten
    }

    fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerCache)> {
        let in_shape = x.shape().to_vec();
        let n = in_shape[0];
        let rest: usize = in_shape[1..].iter().product();
        Ok((
            x.reshape(&[n, rest])?,
            LayerCache::Flatten { in_shape },
        ))
    }

    /// Flatten into a scratch buffer (a plain copy), so the network loop can
    /// recycle the layer's input like any other intermediate.
    fn infer(&self, x: &Tensor) -> Result<Tensor> {
        let in_shape = x.shape();
        let n = in_shape[0];
        let rest: usize = in_shape[1..].iter().product();
        let mut out = scratch::take(x.len());
        out.copy_from_slice(x.data());
        Ok(Tensor::from_vec(vec![n, rest], out)?)
    }

    fn backward(&self, grad: &Tensor, cache: &LayerCache) -> Result<(Tensor, ParamGrads)> {
        let LayerCache::Flatten { in_shape } = cache else {
            return Err(NnError::LayerInput("flatten backward with wrong cache".into()));
        };
        Ok((grad.reshape(in_shape)?, None))
    }
}

// ---------------------------------------------------------------------------
// Layer enum
// ---------------------------------------------------------------------------

/// One layer of a sequential [`crate::Network`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully connected layer.
    Dense(Dense),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Rectified linear unit.
    Relu(Relu),
    /// Logistic sigmoid.
    Sigmoid(Sigmoid),
    /// Hyperbolic tangent.
    Tanh(Tanh),
    /// Non-overlapping max pooling.
    MaxPool2d(MaxPool2d),
    /// Batch-preserving flatten.
    Flatten(Flatten),
}

impl Layer {
    /// Runs the layer forward, returning the output and a backward cache.
    ///
    /// # Errors
    ///
    /// Propagates shape and configuration errors from the layer.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerCache)> {
        match self {
            Layer::Dense(l) => l.forward(x),
            Layer::Conv2d(l) => l.forward(x),
            Layer::Relu(l) => l.forward(x),
            Layer::Sigmoid(l) => l.forward(x),
            Layer::Tanh(l) => l.forward(x),
            Layer::MaxPool2d(l) => l.forward(x),
            Layer::Flatten(l) => l.forward(x),
        }
    }

    /// Runs the layer forward without keeping a cache (inference).
    ///
    /// Unlike [`Layer::forward`] this path draws every intermediate and the
    /// output itself from the calling thread's [`dcn_tensor::scratch`] pool,
    /// so a warm pool serves repeated inference without heap allocations.
    /// The returned tensor owns a pool buffer; callers on a hot loop should
    /// hand it back via `scratch::recycle(t.into_vec())` once done (dropping
    /// it instead is correct but forfeits the reuse). Outputs are bitwise
    /// identical to `self.forward(x)?.0` — pinned by tests.
    ///
    /// # Errors
    ///
    /// Propagates shape and configuration errors from the layer.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Dense(l) => l.infer(x),
            Layer::Conv2d(l) => l.infer(x),
            Layer::Relu(_) => map_into(x, |v| v.max(0.0)),
            Layer::Sigmoid(_) => map_into(x, |v| 1.0 / (1.0 + (-v).exp())),
            Layer::Tanh(_) => map_into(x, f32::tanh),
            Layer::MaxPool2d(l) => l.infer(x),
            Layer::Flatten(l) => l.infer(x),
        }
    }

    /// Backward pass: maps the output gradient to (input gradient, parameter
    /// gradients).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LayerInput`] if `cache` came from a different layer
    /// type.
    pub fn backward(&self, grad: &Tensor, cache: &LayerCache) -> Result<(Tensor, ParamGrads)> {
        match self {
            Layer::Dense(l) => l.backward(grad, cache),
            Layer::Conv2d(l) => l.backward(grad, cache),
            Layer::Relu(l) => l.backward(grad, cache),
            Layer::Sigmoid(l) => l.backward(grad, cache),
            Layer::Tanh(l) => l.backward(grad, cache),
            Layer::MaxPool2d(l) => l.backward(grad, cache),
            Layer::Flatten(l) => l.backward(grad, cache),
        }
    }

    /// Immutable views of the layer's parameter tensors (weights then bias).
    pub fn params(&self) -> Vec<&Tensor> {
        match self {
            Layer::Dense(l) => vec![&l.w, &l.b],
            Layer::Conv2d(l) => vec![&l.w, &l.b],
            _ => vec![],
        }
    }

    /// Mutable views of the layer's parameter tensors (weights then bias).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Layer::Dense(l) => vec![&mut l.w, &mut l.b],
            Layer::Conv2d(l) => vec![&mut l.w, &mut l.b],
            _ => vec![],
        }
    }

    /// Output shape (excluding batch) for a given input shape (excluding
    /// batch), used for construction-time validation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LayerInput`] if the input shape is incompatible.
    pub fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>> {
        match self {
            Layer::Dense(l) => {
                if in_shape != [l.in_dim()] {
                    return Err(NnError::LayerInput(format!(
                        "dense expects [{}], got {in_shape:?}",
                        l.in_dim()
                    )));
                }
                Ok(vec![l.out_dim()])
            }
            Layer::Conv2d(l) => {
                let g = &l.geom;
                let want = [g.in_channels(), g.in_h(), g.in_w()];
                if in_shape != want {
                    return Err(NnError::LayerInput(format!(
                        "conv expects {want:?}, got {in_shape:?}"
                    )));
                }
                Ok(vec![l.out_channels, g.out_h(), g.out_w()])
            }
            Layer::Relu(_) | Layer::Sigmoid(_) | Layer::Tanh(_) => Ok(in_shape.to_vec()),
            Layer::MaxPool2d(l) => {
                if in_shape.len() != 3 {
                    return Err(NnError::LayerInput(format!(
                        "pool expects [C,H,W], got {in_shape:?}"
                    )));
                }
                let (c, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
                if h < l.k || w < l.k {
                    return Err(NnError::LayerInput(format!(
                        "pool window {} exceeds input {h}x{w}",
                        l.k
                    )));
                }
                Ok(vec![c, h / l.k, w / l.k])
            }
            Layer::Flatten(_) => Ok(vec![in_shape.iter().product()]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_matches_hand_computation() {
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_slice(&[0.5, -0.5]);
        let l = Dense::from_params(w, b).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let (y, _) = l.forward(&x).unwrap();
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_rejects_bad_params() {
        let w = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2]);
        assert!(Dense::from_params(w, b).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Dense::new(0, 3, &mut rng).is_err());
    }

    #[test]
    fn relu_masks_negatives_in_both_directions() {
        let l = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 2.0, -3.0, 4.0])
            .reshape(&[1, 4])
            .unwrap();
        let (y, cache) = l.forward(&x).unwrap();
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = Tensor::ones(&[1, 4]);
        let (dx, none) = l.backward(&g, &cache).unwrap();
        assert!(none.is_none());
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_selects_window_maxima_and_routes_gradient() {
        let x = Tensor::from_vec(
            vec![1, 1, 2, 4],
            vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 8.0, 7.0],
        )
        .unwrap();
        let l = MaxPool2d::new(2).unwrap();
        let (y, cache) = l.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[5.0, 8.0]);
        let g = Tensor::from_vec(vec![1, 1, 1, 2], vec![10.0, 20.0]).unwrap();
        let (dx, _) = l.backward(&g, &cache).unwrap();
        assert_eq!(dx.get(&[0, 0, 0, 1]).unwrap(), 10.0); // where 5.0 lived
        assert_eq!(dx.get(&[0, 0, 1, 2]).unwrap(), 20.0); // where 8.0 lived
        assert_eq!(dx.sum(), 30.0);
    }

    #[test]
    fn maxpool_rejects_undersized_input() {
        let l = MaxPool2d::new(4).unwrap();
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(l.forward(&x).is_err());
        assert!(MaxPool2d::new(0).is_err());
    }

    #[test]
    fn flatten_round_trips_shape() {
        let l = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let (y, cache) = l.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 60]);
        let (dx, _) = l.backward(&y, &cache).unwrap();
        assert_eq!(dx.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn conv_forward_known_kernel() {
        // 3x3 input, single 2x2 kernel of ones, no padding → sums of windows.
        let geom = Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Conv2d::new(geom, 1, &mut rng).unwrap();
        l.w = Tensor::ones(&[4, 1]);
        l.b = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(
            vec![1, 1, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        )
        .unwrap();
        let (y, _) = l.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv_channel_layout_is_nchw() {
        let geom = Conv2dGeometry::new(1, 2, 2, 1, 1, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Conv2d::new(geom, 2, &mut rng).unwrap();
        // Two 1x1 kernels: identity and doubling.
        l.w = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        l.b = Tensor::from_slice(&[0.0, 100.0]);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let (y, _) = l.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0, 102.0, 104.0, 106.0, 108.0]);
    }

    #[test]
    fn backward_rejects_mismatched_cache() {
        let mut rng = StdRng::seed_from_u64(0);
        let dense = Dense::new(2, 2, &mut rng).unwrap();
        let bad = LayerCache::Flatten { in_shape: vec![1, 2] };
        let g = Tensor::zeros(&[1, 2]);
        assert!(matches!(
            dense.backward(&g, &bad),
            Err(NnError::LayerInput(_))
        ));
    }

    #[test]
    fn out_shape_validates_and_chains() {
        let mut rng = StdRng::seed_from_u64(0);
        let geom = Conv2dGeometry::new(1, 8, 8, 3, 1, 0).unwrap();
        let conv = Layer::Conv2d(Conv2d::new(geom, 4, &mut rng).unwrap());
        let pool = Layer::MaxPool2d(MaxPool2d::new(2).unwrap());
        let flat = Layer::Flatten(Flatten::new());
        let s = conv.out_shape(&[1, 8, 8]).unwrap();
        assert_eq!(s, vec![4, 6, 6]);
        let s = pool.out_shape(&s).unwrap();
        assert_eq!(s, vec![4, 3, 3]);
        let s = flat.out_shape(&s).unwrap();
        assert_eq!(s, vec![36]);
        assert!(conv.out_shape(&[2, 8, 8]).is_err());
    }

    #[test]
    fn sigmoid_forward_backward() {
        let l = Sigmoid::new();
        let x = Tensor::from_slice(&[0.0, 100.0, -100.0]).reshape(&[1, 3]).unwrap();
        let (y, cache) = l.forward(&x).unwrap();
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        assert!(y.data()[1] > 0.999);
        assert!(y.data()[2] < 0.001);
        let g = Tensor::ones(&[1, 3]);
        let (dx, none) = l.backward(&g, &cache).unwrap();
        assert!(none.is_none());
        // σ'(0) = 0.25; saturated ends ≈ 0.
        assert!((dx.data()[0] - 0.25).abs() < 1e-6);
        assert!(dx.data()[1] < 1e-3);
    }

    #[test]
    fn tanh_forward_backward() {
        let l = Tanh::new();
        let x = Tensor::from_slice(&[0.0, 2.0]).reshape(&[1, 2]).unwrap();
        let (y, cache) = l.forward(&x).unwrap();
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - 2.0f32.tanh()).abs() < 1e-6);
        let g = Tensor::ones(&[1, 2]);
        let (dx, _) = l.backward(&g, &cache).unwrap();
        assert!((dx.data()[0] - 1.0).abs() < 1e-6); // tanh'(0) = 1
        assert!(dx.data()[1] < 0.1);
    }

    #[test]
    fn activation_layers_preserve_shape() {
        for layer in [Layer::Sigmoid(Sigmoid::new()), Layer::Tanh(Tanh::new())] {
            assert_eq!(layer.out_shape(&[4, 3, 3]).unwrap(), vec![4, 3, 3]);
            assert!(layer.params().is_empty());
        }
    }

    #[test]
    fn infer_is_bitwise_identical_to_forward_for_every_layer() {
        let mut rng = StdRng::seed_from_u64(42);
        let geom = Conv2dGeometry::new(2, 6, 6, 3, 1, 1).unwrap();
        let cases: Vec<(Layer, Tensor)> = vec![
            (
                Layer::Dense(Dense::new(5, 3, &mut rng).unwrap()),
                Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng),
            ),
            (
                Layer::Conv2d(Conv2d::new(geom, 4, &mut rng).unwrap()),
                Tensor::randn(&[2, 2, 6, 6], 0.0, 1.0, &mut rng),
            ),
            (
                Layer::Relu(Relu::new()),
                Tensor::randn(&[3, 7], 0.0, 1.0, &mut rng),
            ),
            (
                Layer::Sigmoid(Sigmoid::new()),
                Tensor::randn(&[3, 7], 0.0, 2.0, &mut rng),
            ),
            (
                Layer::Tanh(Tanh::new()),
                Tensor::randn(&[3, 7], 0.0, 2.0, &mut rng),
            ),
            (
                Layer::MaxPool2d(MaxPool2d::new(2).unwrap()),
                Tensor::randn(&[2, 3, 4, 4], 0.0, 1.0, &mut rng),
            ),
            (
                Layer::Flatten(Flatten::new()),
                Tensor::randn(&[2, 3, 4, 4], 0.0, 1.0, &mut rng),
            ),
        ];
        for (layer, x) in cases {
            let (trained, _) = layer.forward(&x).unwrap();
            let inferred = layer.infer(&x).unwrap();
            assert_eq!(inferred.shape(), trained.shape(), "{layer:?}");
            for (a, b) in inferred.data().iter().zip(trained.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{layer:?}");
            }
        }
    }

    #[test]
    fn layer_serde_round_trip() {
        let mut rng = StdRng::seed_from_u64(9);
        let layer = Layer::Dense(Dense::new(3, 2, &mut rng).unwrap());
        let json = serde_json::to_string(&layer).unwrap();
        let back: Layer = serde_json::from_str(&json).unwrap();
        assert_eq!(layer, back);
    }
}
