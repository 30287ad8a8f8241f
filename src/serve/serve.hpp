#pragma once
// serve — multi-tenant serving layer umbrella (docs/SERVING.md).
//
// This header is the CLIENT surface: value types, the service facade, the
// manifest loader and the JSON record codecs. The machinery behind it (JobQueue, Scheduler,
// BoardPartitioner, AdmissionController, JobRuntime) is internal to
// src/serve and fenced off by the g6lint `serve-isolation` rule — include
// this header, talk through ServeClient.

#include "serve/codec.hpp"
#include "serve/manifest.hpp"
#include "serve/service.hpp"
#include "serve/types.hpp"
