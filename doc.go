// Package samzasql is a from-scratch Go reproduction of "SamzaSQL: Scalable
// Fast Data Management with Streaming SQL" (Pathirage, Hyde, Pan, Plale —
// IPPS 2016): a streaming SQL engine (parser, validator, planner, optimizer
// and operator layer) compiled onto a Samza-like distributed stream
// processing framework, together with the Kafka-like partitioned log,
// YARN-like scheduler, Avro-like serialization stack and Zookeeper-like
// metadata store it depends on.
//
// The public surface lives under internal/ packages wired together by
// internal/executor.Engine; the cmd/ binaries (samzasql-shell,
// samzasql-bench, samzasql-gen) and examples/ directories show how the
// pieces compose. The repository-root bench_test.go regenerates every
// figure of the paper's evaluation.
package samzasql
