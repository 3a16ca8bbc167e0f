//! Streaming partitions must be byte-identical to the monolithic parse.
//!
//! With a fixed schema (so per-partition type inference cannot diverge),
//! feeding the input through `parse_stream` or the `partitions` iterator
//! in small partitions must reproduce the whole-input parse exactly — same
//! IPC bytes — for any worker count and any tagging mode. This pins the
//! executor's arena reuse and the carry/retag logic at partition
//! boundaries.

use parparaw::columnar::ipc;
use parparaw::prelude::*;
use parparaw::workloads::yelp;

/// The worker counts, tagging modes and partition sizes both tests sweep.
const WORKERS: [usize; 3] = [1, 2, 8];
fn modes() -> [TaggingMode; 3] {
    [
        TaggingMode::inline_default(),
        TaggingMode::VectorDelimited,
        TaggingMode::RecordTagged,
    ]
}
const PARTITIONS: [usize; 2] = [512, 4096];

fn parser(workers: usize, mode: TaggingMode) -> Parser {
    let opts = ParserOptions {
        grid: Grid::new(workers),
        schema: Some(yelp::schema()),
        tagging: mode,
        ..ParserOptions::default()
    }
    .chunk_size(17);
    Parser::new(rfc4180(&CsvDialect::default()), opts)
}

/// The `partitions` iterator's batches, concatenated.
fn concat_batches(p: &Parser, input: &[u8], partition: usize) -> Table {
    let batches: Vec<Table> = p
        .partitions(input, partition)
        .collect::<Result<_, _>>()
        .unwrap();
    let refs: Vec<&Table> = batches.iter().collect();
    Table::concat(&refs).unwrap()
}

#[test]
fn streaming_is_byte_identical_across_workers_and_modes() {
    let input = yelp::generate(40_000, 7);
    // The reference: single whole-input parse at one worker, inline mode.
    let reference = parser(1, modes()[0]).parse(&input).unwrap();
    let reference_bytes = ipc::write_table(&reference.table);

    for workers in WORKERS {
        for mode in modes() {
            let p = parser(workers, mode);
            let mono = p.parse(&input).unwrap();
            assert_eq!(
                ipc::write_table(&mono.table),
                reference_bytes,
                "monolithic parse diverged: workers={workers} mode={mode:?}"
            );
            for partition in PARTITIONS {
                let streamed = p.parse_stream(&input, partition).unwrap();
                assert_eq!(
                    ipc::write_table(&streamed.table),
                    reference_bytes,
                    "stream diverged: workers={workers} mode={mode:?} partition={partition}"
                );
            }
        }
    }
}

#[test]
fn partition_iterator_concatenates_to_the_monolithic_table() {
    let input = yelp::generate(20_000, 11);
    let reference = ipc::write_table(&parser(1, modes()[0]).parse(&input).unwrap().table);
    for workers in WORKERS {
        for mode in modes() {
            let p = parser(workers, mode);
            for partition in PARTITIONS {
                assert_eq!(
                    ipc::write_table(&concat_batches(&p, &input, partition)),
                    reference,
                    "iterator diverged: workers={workers} mode={mode:?} partition={partition}"
                );
            }
        }
    }

    // A header plus an explicit schema: the schema names the columns on
    // every path, the header row is only skipped.
    let input = b"id,v\n1,10\n2,20\n3,30\n4,40\n";
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Int64),
    ]);
    let p = Parser::new(
        rfc4180(&CsvDialect::default()),
        ParserOptions {
            header: true,
            schema: Some(schema),
            ..ParserOptions::default()
        },
    );
    let mono = p.parse(input).unwrap().table;
    assert_eq!(mono.schema().fields[0].name, "a");
    assert_eq!(mono.num_rows(), 4);
    let mono = ipc::write_table(&mono);
    let streamed = p.parse_stream(input, 8).unwrap().table;
    assert_eq!(ipc::write_table(&streamed), mono, "parse_stream");
    assert_eq!(
        ipc::write_table(&concat_batches(&p, input, 8)),
        mono,
        "partitions"
    );
}
